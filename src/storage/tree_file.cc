#include "storage/tree_file.h"

#include <algorithm>

#include "common/logging.h"

namespace vist {

Result<std::unique_ptr<TreeFile>> TreeFile::Open(const std::string& path,
                                                 const PagerOptions& options,
                                                 size_t pool_pages) {
  // Open the pager first: a TreeFile exists only fully built, so its
  // destructor can always close it.
  VIST_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                        Pager::Open(path, options));
  std::unique_ptr<TreeFile> file(new TreeFile());
  file->pager_ = std::move(pager);
  file->pool_ = std::make_unique<BufferPool>(file->pager_.get(),
                                             std::max<size_t>(pool_pages, 256));
  file->versions_ =
      std::make_unique<VersionManager>(file->pager_.get(), file->pool_.get());
  file->versions_->Bootstrap();
  return file;
}

TreeFile::~TreeFile() {
  if (done_) return;
  Status s = Close();
  if (!s.ok()) VIST_LOG(Error) << "tree file close: " << s.ToString();
}

Result<std::unique_ptr<BTree>> TreeFile::CreateTree(int slot) {
  return BTree::Create(pager_.get(), pool_.get(), versions_.get(), slot);
}

Result<std::unique_ptr<BTree>> TreeFile::OpenTree(int slot) {
  return BTree::Open(pager_.get(), pool_.get(), versions_.get(), slot);
}

Status TreeFile::Write(uint64_t epoch, const std::function<Status()>& body) {
  versions_->BeginWrite();
  Status s = body();
  if (!s.ok()) {
    versions_->Abort();
    return s;
  }
  return versions_->Commit(epoch);
}

Status TreeFile::Flush() {
  VIST_RETURN_IF_ERROR(versions_->ReclaimEligible());
  VIST_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Sync();
}

Status TreeFile::Close() {
  done_ = true;
  VIST_RETURN_IF_ERROR(versions_->ReclaimAllForClose());
  VIST_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Sync();
}

void TreeFile::SimulateCrashForTesting() {
  done_ = true;
  versions_->AbandonForCrash();
  pool_->SimulateCrashForTesting();
  pager_->SimulateCrashForTesting();
}

}  // namespace vist
