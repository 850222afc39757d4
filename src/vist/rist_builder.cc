#include "vist/rist_builder.h"

#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "query/path_parser.h"
#include "seq/key_codec.h"
#include "suffix/trie.h"
#include "vist/scope.h"

namespace vist {
namespace {

constexpr int kEntryTreeSlot = 0;
constexpr int kDocIdTreeSlot = 1;

// Bulk-loads the labeled trie: one S-Ancestor entry per node, one DocId
// entry per attached document.
Status LoadSubtree(const TrieNode& node, bool is_root, uint64_t parent_n,
                   BTree* entry_tree, BTree* docid_tree,
                   uint64_t* max_depth) {
  if (!is_root) {
    NodeRecord record;
    record.n = node.n;
    record.size = node.size + 1;  // (n, n+size) covers the descendants
    record.parent_n = parent_n;
    record.refcount = 1;  // static: liveness tracking is not used
    const std::string dkey =
        EncodeDKey(node.element.symbol, node.element.prefix);
    VIST_RETURN_IF_ERROR(entry_tree->Put(
        EncodeEntryKey(dkey, parent_n, node.n), EncodeNodeRecord(record)));
    for (uint64_t doc_id : node.doc_ids) {
      VIST_RETURN_IF_ERROR(
          docid_tree->Put(EncodeDocIdKey(node.n, doc_id), Slice()));
    }
    *max_depth = std::max<uint64_t>(*max_depth, node.element.prefix.size());
  }
  for (const auto& child : node.children) {
    VIST_RETURN_IF_ERROR(LoadSubtree(*child, /*is_root=*/false, node.n,
                                     entry_tree, docid_tree, max_depth));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RistIndex>> RistIndex::Build(
    const std::string& dir,
    const std::vector<std::pair<uint64_t, Sequence>>& documents,
    const SymbolTable* symtab, const RistOptions& options) {
  VIST_CHECK(symtab != nullptr);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);

  // Steps i) and ii) of §3.3: build the suffix-tree structure, then label
  // it by one preorder traversal.
  SequenceTrie trie;
  for (const auto& [doc_id, sequence] : documents) {
    trie.Insert(sequence, doc_id);
  }
  LabelTrie(&trie);

  std::unique_ptr<RistIndex> index(new RistIndex(symtab, options));
  PagerOptions pager_options;
  pager_options.page_size = options.page_size;
  VIST_ASSIGN_OR_RETURN(index->file_,
                        TreeFile::Open(dir + "/rist.db", pager_options,
                                       options.buffer_pool_pages));
  TreeFile* file = index->file_.get();

  auto load = [&]() -> Status {
    VIST_ASSIGN_OR_RETURN(index->entry_tree_,
                          file->CreateTree(kEntryTreeSlot));
    VIST_ASSIGN_OR_RETURN(index->docid_tree_,
                          file->CreateTree(kDocIdTreeSlot));
    // Step iii): insert every labeled node into the B+ trees.
    uint64_t max_depth = 0;
    VIST_RETURN_IF_ERROR(LoadSubtree(*trie.root(), /*is_root=*/true, 0,
                                     index->entry_tree_.get(),
                                     index->docid_tree_.get(), &max_depth));
    index->max_depth_ = max_depth;
    return Status::OK();
  };
  // The whole bulk load is one write transaction committing one version —
  // the only version a static index ever has.
  VIST_RETURN_IF_ERROR(file->Write(/*epoch=*/0, load));
  index->version_ = file->Pin();
  index->num_nodes_ = trie.num_nodes();
  return index;
}

Result<std::vector<uint64_t>> RistIndex::QueryCompiled(
    const query::CompiledQuery& compiled, obs::QueryProfile* profile) {
  MatchContext context{entry_tree_->ViewAt(*version_),
                       docid_tree_->ViewAt(*version_), max_depth_};
  return MatchCompiledQuery(context, compiled, profile);
}

Result<std::vector<uint64_t>> RistIndex::Query(std::string_view path,
                                               obs::QueryProfile* profile) {
  if (profile != nullptr) {
    profile->engine = "rist";
    profile->query = std::string(path);
  }
  query::CompileOptions compile_options;
  compile_options.max_alternatives = options_.max_alternatives;
  VIST_ASSIGN_OR_RETURN(query::CompiledQuery compiled,
                        query::CompilePath(path, *symtab_, compile_options));
  return QueryCompiled(compiled, profile);
}

}  // namespace vist
