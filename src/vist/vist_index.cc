#include "vist/vist_index.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/coding.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "query/path_parser.h"
#include "seq/key_codec.h"
#include "vist/manifest.h"
#include "vist/verifier.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace {

constexpr int kEntryTreeSlot = 0;
constexpr int kDocIdTreeSlot = 1;
constexpr int kDocStoreSlot = 2;
// Scalar slots, versioned with the tree roots so a snapshot's scalars match
// its trees (see header).
constexpr int kMaxDepthSlot = 3;
constexpr int kUnderflowSlot = 4;

// Metric reference: docs/OBSERVABILITY.md (vist section).
struct VistMetrics {
  obs::Counter& insert_sequences = obs::GetCounter("vist.insert.sequences");
  obs::Counter& underflow_runs = obs::GetCounter("vist.insert.underflow_runs");
  obs::Counter& delete_sequences = obs::GetCounter("vist.delete.sequences");
  obs::Counter& bulk_load_sequences =
      obs::GetCounter("vist.bulk_load.sequences");
  obs::Counter& queries = obs::GetCounter("vist.query.count");
  obs::Histogram& insert_latency_us =
      obs::GetHistogram("vist.insert.latency_us");
  obs::Histogram& query_latency_us =
      obs::GetHistogram("vist.query.latency_us");

  static VistMetrics& Get() {
    static VistMetrics metrics;
    return metrics;
  }
};

// Document-store keys: doc_id (8B BE) ‖ chunk index (4B BE).
std::string DocChunkKey(uint64_t doc_id, uint32_t chunk) {
  std::string key;
  PutFixed64BE(&key, doc_id);
  PutFixed32BE(&key, chunk);
  return key;
}

Status ParseRootRecord(const std::string& value, NodeRecord* record) {
  if (!DecodeNodeRecord(value, record)) {
    return Status::Corruption("malformed virtual-root record");
  }
  record->n = 0;
  record->parent_n = 0;
  return Status::OK();
}

// VistIndex's compiled form: the query tree (needed again at execution
// time for verified queries) plus the query sequences matched against the
// virtual suffix tree.
class VistQueryPlan : public QueryPlan {
 public:
  VistQueryPlan(std::string path, bool plan_cacheable, query::QueryTree tree,
                query::CompiledQuery compiled)
      : QueryPlan(std::move(path), plan_cacheable),
        tree_(std::move(tree)),
        compiled_(std::move(compiled)) {}

  size_t MemoryUsage() const override {
    size_t bytes = sizeof(*this) + path().size() +
                   query::QueryTreeMemoryUsage(*tree_.root);
    for (const query::QuerySequence& alternative : compiled_.alternatives) {
      bytes += alternative.size() * sizeof(query::QuerySequenceElement);
      for (const query::QuerySequenceElement& element : alternative) {
        bytes += element.pattern.size() * sizeof(Symbol);
      }
    }
    return bytes;
  }

  const query::QueryTree& tree() const { return tree_; }
  const query::CompiledQuery& compiled() const { return compiled_; }

 private:
  const query::QueryTree tree_;
  const query::CompiledQuery compiled_;
};

}  // namespace

VistIndex::VistIndex(std::string dir, VistOptions options)
    : dir_(std::move(dir)),
      options_(options),
      root_key_(EncodeEntryKey(EncodeDKey(kInvalidSymbol, {}), 0, 0)) {}

VistIndex::~VistIndex() {
  // A crashed index leaves its unflushed state behind; otherwise save the
  // symbol table, and file_'s destructor closes the page file (drains
  // limbo, then flushes).
  if (file_ == nullptr || crashed_) return;
  Status s = symtab_.Save(SymbolsPath(dir_));
  if (!s.ok()) VIST_LOG(Error) << "index close: " << s.ToString();
}

void VistIndex::SimulateCrashForTesting() {
  // vist-lint: no-epoch-bump(simulated crash freezes state; nothing below
  // commits a mutation readers could observe at a new epoch)
  WriterLock lock(mu_);
  crashed_ = true;
  file_->SimulateCrashForTesting();
}

Status VistIndex::InitTrees(bool create) {
  PagerOptions pager_options;
  pager_options.page_size = options_.page_size;
  pager_options.durability = options_.durability;
  pager_options.env = options_.env;
  VIST_ASSIGN_OR_RETURN(file_,
                        TreeFile::Open(PageFilePath(dir_), pager_options,
                                       options_.buffer_pool_pages));
  auto load_trees = [&]() -> Status {
    auto tree_at = [&](int slot) {
      return create ? file_->CreateTree(slot) : file_->OpenTree(slot);
    };
    VIST_ASSIGN_OR_RETURN(entry_tree_, tree_at(kEntryTreeSlot));
    VIST_ASSIGN_OR_RETURN(docid_tree_, tree_at(kDocIdTreeSlot));
    if (options_.store_documents) {
      VIST_ASSIGN_OR_RETURN(doc_store_, tree_at(kDocStoreSlot));
    }
    return Status::OK();
  };
  // Creating the trees allocates their root pages and points the meta
  // slots at them — one version-install transaction like any mutation.
  VIST_RETURN_IF_ERROR(create ? file_->Write(/*epoch=*/0, load_trees)
                              : load_trees());
  if (options_.allocator == VistOptions::AllocatorKind::kStatistical) {
    allocator_ = std::make_unique<StatisticalScopeAllocator>(
        &stats_, options_.lambda, options_.reserve_divisor,
        options_.other_divisor);
  } else {
    allocator_ = std::make_unique<UniformScopeAllocator>(
        options_.lambda, options_.reserve_divisor);
  }
  return Status::OK();
}

Result<std::unique_ptr<VistIndex>> VistIndex::Create(
    const std::string& dir, const VistOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  if (std::filesystem::exists(ManifestPath(dir))) {
    return Status::InvalidArgument(dir + " already contains an index");
  }
  if (options.allocator == VistOptions::AllocatorKind::kStatistical &&
      options.stats == nullptr) {
    return Status::InvalidArgument(
        "statistical allocator requires VistOptions::stats");
  }
  VIST_RETURN_IF_ERROR(SaveManifest(dir, options));

  std::unique_ptr<VistIndex> index(new VistIndex(dir, options));
  if (options.stats != nullptr) {
    index->stats_ = *options.stats;
    VIST_RETURN_IF_ERROR(index->stats_.Save(StatsPath(dir)));
  }
  VIST_RETURN_IF_ERROR(index->InitTrees(/*create=*/true));

  // The virtual root: owns the whole label space, label 0 unused. The
  // index is not shared yet, but WriteRecord's locking contract is
  // compiler-checked, so take the (uncontended) writer lock; Flush
  // acquires it itself.
  {
    NodeRecord root;
    root.n = 0;
    root.size = kMaxScope;
    index->allocator_->InitRecord(&root);
    VistIndex* raw = index.get();
    // vist-lint: no-epoch-bump(construction: the index is not shared yet,
    // so there is no cache or router watching the epoch)
    WriterLock lock(raw->mu_);
    VIST_RETURN_IF_ERROR(raw->file_->Write(
        /*epoch=*/0, [&]() VIST_REQUIRES(raw->mu_) {
          return raw->WriteRecord(raw->root_key_, root);
        }));
  }
  VIST_RETURN_IF_ERROR(index->Flush());
  return index;
}

Result<std::unique_ptr<VistIndex>> VistIndex::Open(const std::string& dir,
                                                   const VistOptions& options) {
  VistOptions merged = options;
  VIST_RETURN_IF_ERROR(LoadManifest(dir, &merged));
  std::unique_ptr<VistIndex> index(new VistIndex(dir, merged));
  VIST_ASSIGN_OR_RETURN(index->symtab_, SymbolTable::Load(SymbolsPath(dir)));
  if (merged.allocator == VistOptions::AllocatorKind::kStatistical) {
    VIST_ASSIGN_OR_RETURN(index->stats_, SchemaStats::Load(StatsPath(dir)));
  }
  VIST_RETURN_IF_ERROR(index->InitTrees(/*create=*/false));
  return index;
}

Status VistIndex::LoadRootRecord(NodeRecord* record) {
  VIST_ASSIGN_OR_RETURN(std::string value, entry_tree_->Get(root_key_));
  return ParseRootRecord(value, record);
}

Status VistIndex::LoadRootRecordAt(const BTreeView& tree,
                                   NodeRecord* record) const {
  VIST_ASSIGN_OR_RETURN(std::string value, tree.Get(root_key_));
  return ParseRootRecord(value, record);
}

Status VistIndex::WriteRecord(const std::string& entry_key,
                              const NodeRecord& record) {
  return entry_tree_->Put(entry_key, EncodeNodeRecord(record));
}

Status VistIndex::ScanImmediateChildren(
    const std::string& dkey, uint64_t parent_n,
    const std::function<bool(PathEntry)>& visit) {
  auto it = entry_tree_->NewIterator();
  for (it->Seek(EncodeEntryKey(dkey, parent_n, 0));
       it->Valid() && it->key().StartsWith(dkey); it->Next()) {
    Slice dkey_slice;
    uint64_t key_parent_n = 0, n = 0;
    if (!DecodeEntryKey(it->key(), &dkey_slice, &key_parent_n, &n) ||
        dkey_slice.size() != dkey.size() || key_parent_n != parent_n) {
      break;
    }
    PathEntry child;
    if (!DecodeNodeRecord(it->value(), &child.record)) {
      return Status::Corruption("malformed node record");
    }
    child.key = it->key().ToString();
    child.record.n = n;
    child.record.parent_n = parent_n;
    if (!visit(std::move(child))) return Status::OK();
  }
  return it->status();
}

std::shared_ptr<const VistSnapshot> VistIndex::PinSnapshot() const {
  std::shared_ptr<VistSnapshot> snap(new VistSnapshot(this));
  snap->version_ = file_->Pin();
  const Version& v = *snap->version_;
  snap->entry_tree_ = entry_tree_->ViewAt(v);
  snap->docid_tree_ = docid_tree_->ViewAt(v);
  if (doc_store_ != nullptr) snap->doc_store_ = doc_store_->ViewAt(v);
  return snap;
}

Result<std::shared_ptr<const Snapshot>> VistIndex::GetSnapshot() {
  return std::shared_ptr<const Snapshot>(PinSnapshot());
}

Status VistIndex::InsertSequence(const Sequence& sequence, uint64_t doc_id) {
  WriterLock lock(mu_);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    return InsertSequenceImpl(sequence, doc_id);
  });
  // Install-then-bump (the QueryableIndex epoch contract): the epoch moves
  // only after the new version is published or rolled back, while the
  // writer lock is still held.
  BumpEpoch();
  return s;
}

Status VistIndex::InsertSequenceImpl(const Sequence& sequence,
                                     uint64_t doc_id) {
  VistMetrics::Get().insert_sequences.Increment();
  obs::ScopedTimer timer(VistMetrics::Get().insert_latency_us);
  std::vector<PathEntry> path(1);
  path[0].key = root_key_;
  VIST_RETURN_IF_ERROR(LoadRootRecord(&path[0].record));
  auto find_child = [this](const std::string& dkey, uint64_t parent_n,
                           PathEntry* child)
                        VIST_REQUIRES(mu_) -> Result<bool> {
    bool found = false;
    VIST_RETURN_IF_ERROR(
        ScanImmediateChildren(dkey, parent_n, [&](PathEntry first) {
          *child = std::move(first);
          found = true;
          return false;
        }));
    return found;
  };
  VIST_RETURN_IF_ERROR(LabelPath(sequence, find_child, &path));
  // Commit: persist every record on the final path. Nothing was written
  // before this point, so allocation failures above leave the index
  // untouched.
  for (const PathEntry& entry : path) {
    VIST_RETURN_IF_ERROR(WriteRecord(entry.key, entry.record));
  }
  return docid_tree_->Put(EncodeDocIdKey(path.back().record.n, doc_id),
                          Slice());
}

Status VistIndex::LabelPath(const Sequence& sequence,
                            const ChildLookup& find_child,
                            std::vector<PathEntry>* path) {
  if (sequence.empty()) {
    return Status::InvalidArgument("cannot index an empty sequence");
  }
  for (const SequenceElement& elem : sequence) {
    const std::string dkey = EncodeDKey(elem.symbol, elem.prefix);
    PathEntry& parent = path->back();
    PathEntry child;
    VIST_ASSIGN_OR_RETURN(bool found,
                          find_child(dkey, parent.record.n, &child));
    if (!found) {
      Scope scope = allocator_->AllocateChild(
          &parent.record, parent.symbol, elem.symbol,
          static_cast<uint32_t>(elem.prefix.size()));
      if (!scope.valid()) {
        VIST_RETURN_IF_ERROR(InsertUnderflowRun(sequence, path));
        break;
      }
      child.key = EncodeEntryKey(dkey, parent.record.n, scope.n);
      child.record.n = scope.n;
      child.record.size = scope.size;
      child.record.parent_n = parent.record.n;
      allocator_->InitRecord(&child.record);
    }
    child.symbol = elem.symbol;
    path->push_back(std::move(child));
  }
  uint64_t depth = max_depth();
  for (const SequenceElement& elem : sequence) {
    depth = std::max<uint64_t>(depth, elem.prefix.size());
  }
  set_max_depth(depth);
  for (PathEntry& entry : *path) ++entry.record.refcount;
  return Status::OK();
}

Status VistIndex::InsertUnderflowRun(const Sequence& sequence,
                                     std::vector<PathEntry>* path) {
  const size_t total = sequence.size();
  // Borrow from the nearest ancestor whose reserve can hold labels for the
  // remaining elements plus duplicates of the intermediates it skips
  // (§3.4.1: "we borrow scopes from the parent nodes").
  for (size_t j = path->size(); j-- > 0;) {
    PathEntry& ancestor = (*path)[j];
    // path[j] covers sequence element j-1 (path[0] is the virtual root), so
    // elements j..total-1 need labels inside this ancestor.
    const uint64_t run_len = total - j;
    const uint64_t usable_end = allocator_->UsableEnd(ancestor.record);
    if (ancestor.record.seq_cursor < usable_end + run_len ||
        ancestor.record.seq_cursor < run_len) {
      continue;  // reserve exhausted here; climb further
    }
    const uint64_t run_lo = ancestor.record.seq_cursor - run_len;
    ancestor.record.seq_cursor = run_lo;
    set_underflow_runs(underflow_runs() + 1);
    VistMetrics::Get().underflow_runs.Increment();

    // The doc's path now diverges at the ancestor: the abandoned tail
    // entries were never written (all writes are deferred), so dropping
    // them rolls their allocations back.
    path->resize(j + 1);
    for (uint64_t t = 0; t < run_len; ++t) {
      const SequenceElement& elem = sequence[j + t];
      PathEntry entry;
      entry.symbol = elem.symbol;
      entry.record.n = run_lo + t;
      entry.record.size = run_len - t;
      entry.record.parent_n =
          t == 0 ? ancestor.record.n : run_lo + t - 1;
      entry.record.next_free = entry.record.n + 1;
      entry.record.seq_cursor = entry.record.n + entry.record.size;
      entry.key = EncodeEntryKey(EncodeDKey(elem.symbol, elem.prefix),
                                 entry.record.parent_n, entry.record.n);
      path->push_back(std::move(entry));
    }
    return Status::OK();
  }
  return Status::ScopeOverflow(
      "no ancestor reserve can hold the remaining elements");
}

Status VistIndex::BulkLoadSequences(
    const std::vector<std::pair<uint64_t, Sequence>>& documents) {
  WriterLock lock(mu_);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    return BulkLoadSequencesImpl(documents);
  });
  BumpEpoch();
  return s;
}

Status VistIndex::BulkLoadSequencesImpl(
    const std::vector<std::pair<uint64_t, Sequence>>& documents) {
  // Staged virtual suffix tree: entry key -> record, the virtual root
  // first (its key sorts lowest). Immediate children of a node are a
  // contiguous key range (dkey ‖ parent_n ‖ *), so the map answers the
  // same child lookup the B+ tree does.
  std::map<std::string, NodeRecord> staged;
  NodeRecord& root = staged[root_key_];
  VIST_RETURN_IF_ERROR(LoadRootRecord(&root));
  if (root.refcount != 0) {
    return Status::InvalidArgument("bulk load requires an empty index");
  }
  auto find_staged = [&staged](const std::string& dkey, uint64_t parent_n,
                               PathEntry* child) -> Result<bool> {
    const std::string lo = EncodeEntryKey(dkey, parent_n, 0);
    auto it = staged.lower_bound(lo);
    if (it == staged.end() ||
        !Slice(it->first).StartsWith(Slice(lo.data(), lo.size() - 8))) {
      return false;
    }
    child->key = it->first;
    child->record = it->second;
    return true;
  };
  std::vector<std::pair<uint64_t, uint64_t>> doc_labels;  // (n, doc_id)
  for (const auto& [doc_id, sequence] : documents) {
    VistMetrics::Get().bulk_load_sequences.Increment();
    // As in the dynamic insert, the path holds copies until the document
    // commits into the staging area.
    std::vector<PathEntry> path(1);
    path[0].key = root_key_;
    path[0].record = root;
    VIST_RETURN_IF_ERROR(LabelPath(sequence, find_staged, &path));
    for (const PathEntry& entry : path) staged[entry.key] = entry.record;
    doc_labels.emplace_back(path.back().record.n, doc_id);
  }

  // Write everything in key order: root record, entries, then doc ids.
  for (const auto& [key, record] : staged) {
    VIST_RETURN_IF_ERROR(WriteRecord(key, record));
  }
  std::sort(doc_labels.begin(), doc_labels.end());
  for (const auto& [n, doc_id] : doc_labels) {
    VIST_RETURN_IF_ERROR(
        docid_tree_->Put(EncodeDocIdKey(n, doc_id), Slice()));
  }
  return Status::OK();
}

Status VistIndex::InsertDocument(const xml::Node& root, uint64_t doc_id) {
  WriterLock lock(mu_);
  // Interning is not part of the transaction: the symbol table is
  // append-only, so symbols from an aborted insert are harmless.
  Sequence sequence = BuildSequence(root, &symtab_, options_.sequence);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    VIST_RETURN_IF_ERROR(InsertSequenceImpl(sequence, doc_id));
    if (!options_.store_documents) return Status::OK();
    return StoreDocumentText(doc_id, xml::WriteNode(root));
  });
  BumpEpoch();
  return s;
}

Result<bool> VistIndex::TryDelete(const Sequence& sequence, size_t i,
                                  uint64_t doc_id,
                                  std::vector<PathEntry>* path) {
  if (i == sequence.size()) {
    Status s = docid_tree_->Delete(
        EncodeDocIdKey(path->back().record.n, doc_id));
    if (s.IsNotFound()) return false;
    VIST_RETURN_IF_ERROR(s);
    // Unreference the path; garbage-collect nodes no document uses.
    for (size_t t = path->size(); t-- > 1;) {
      PathEntry& entry = (*path)[t];
      if (--entry.record.refcount == 0) {
        VIST_RETURN_IF_ERROR(entry_tree_->Delete(entry.key));
      } else {
        VIST_RETURN_IF_ERROR(WriteRecord(entry.key, entry.record));
      }
    }
    PathEntry& root = (*path)[0];
    if (root.record.refcount > 0) --root.record.refcount;
    VIST_RETURN_IF_ERROR(WriteRecord(root.key, root.record));
    return true;
  }
  const SequenceElement& elem = sequence[i];
  // Collect the candidate children first: scope underflow can duplicate a
  // (symbol, prefix) under one parent, and the doc id lives on only one of
  // the resulting paths.
  std::vector<PathEntry> candidates;
  VIST_RETURN_IF_ERROR(ScanImmediateChildren(
      EncodeDKey(elem.symbol, elem.prefix), path->back().record.n,
      [&candidates](PathEntry child) {
        candidates.push_back(std::move(child));
        return true;
      }));
  for (PathEntry& candidate : candidates) {
    path->push_back(candidate);
    VIST_ASSIGN_OR_RETURN(bool deleted,
                          TryDelete(sequence, i + 1, doc_id, path));
    if (deleted) return true;
    path->pop_back();
  }
  return false;
}

Status VistIndex::DeleteSequence(const Sequence& sequence, uint64_t doc_id) {
  WriterLock lock(mu_);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    return DeleteSequenceImpl(sequence, doc_id);
  });
  BumpEpoch();
  return s;
}

Status VistIndex::DeleteSequenceImpl(const Sequence& sequence,
                                     uint64_t doc_id) {
  if (sequence.empty()) {
    return Status::InvalidArgument("cannot delete an empty sequence");
  }
  VistMetrics::Get().delete_sequences.Increment();
  std::vector<PathEntry> path(1);
  path[0].key = root_key_;
  VIST_RETURN_IF_ERROR(LoadRootRecord(&path[0].record));
  VIST_ASSIGN_OR_RETURN(bool deleted, TryDelete(sequence, 0, doc_id, &path));
  if (!deleted) {
    return Status::NotFound("document not present with this content");
  }
  return Status::OK();
}

Status VistIndex::DeleteDocument(const xml::Node& root, uint64_t doc_id) {
  WriterLock lock(mu_);
  Sequence sequence = BuildSequence(root, &symtab_, options_.sequence);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    VIST_RETURN_IF_ERROR(DeleteSequenceImpl(sequence, doc_id));
    if (!options_.store_documents) return Status::OK();
    return DeleteDocumentText(doc_id);
  });
  BumpEpoch();
  return s;
}

Result<std::vector<uint64_t>> VistIndex::QueryCompiled(
    const query::CompiledQuery& compiled, obs::QueryProfile* profile,
    bool collect_doc_ids) {
  // Lock-free: pin the current version and read only its frozen pages.
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  return QueryCompiledImpl(*snap, compiled, profile, collect_doc_ids);
}

Result<std::vector<uint64_t>> VistIndex::QueryCompiledImpl(
    const VistSnapshot& snap, const query::CompiledQuery& compiled,
    obs::QueryProfile* profile, bool collect_doc_ids,
    DeadlineChecker* checker) {
  MatchContext context{snap.entry_tree_, snap.docid_tree_,
                       snap.version_->slots[kMaxDepthSlot], collect_doc_ids,
                       checker};
  return MatchCompiledQuery(context, compiled, profile);
}

Result<std::shared_ptr<const QueryPlan>> VistIndex::Prepare(
    std::string_view path, const QueryOptions& options) {
  // Compilation reads only the symbol table, which synchronizes itself
  // (and is append-only) — no index lock, no snapshot needed.
  VIST_ASSIGN_OR_RETURN(query::PathExpr expr, query::ParsePath(path));
  VIST_ASSIGN_OR_RETURN(query::QueryTree tree, query::BuildQueryTree(expr));
  query::CompileOptions compile_options;
  compile_options.max_alternatives = options.max_alternatives;
  VIST_ASSIGN_OR_RETURN(query::CompiledQuery compiled,
                        query::CompileQuery(tree, symtab_, compile_options));
  // An empty compilation means a query name was never interned; a later
  // insert can intern it and change the compilation, so such plans must
  // not outlive the query (QueryPlan::cacheable).
  const bool plan_cacheable = !compiled.alternatives.empty();
  return std::shared_ptr<const QueryPlan>(
      std::make_shared<VistQueryPlan>(std::string(path), plan_cacheable,
                                      std::move(tree), std::move(compiled)));
}

Result<std::vector<uint64_t>> VistIndex::QueryWithPlan(
    const QueryPlan& plan, const QueryOptions& options) {
  const auto* vist_plan = dynamic_cast<const VistQueryPlan*>(&plan);
  if (vist_plan == nullptr) {
    return Status::InvalidArgument(
        "plan was not prepared by a VistIndex");
  }
  // One snapshot covers matching, document fetches, and verification, so
  // the whole query — including its verify pass — observes a single
  // committed version, with no reader lock anywhere.
  VIST_ASSIGN_OR_RETURN(
      std::shared_ptr<const VistSnapshot> snap,
      ResolveSnapshot<VistSnapshot>(options, [this] { return PinSnapshot(); }));
  VistMetrics::Get().queries.Increment();
  obs::ScopedTimer timer(VistMetrics::Get().query_latency_us);
  obs::QueryProfile* profile = options.profile;
  if (profile != nullptr) {
    profile->engine = "vist";
    profile->query = plan.path();
  }
  // Stack-owned, thread-confined cancellation state; checkpoints in the
  // matcher, the verifier, and the B+ tree iterators all consult it
  // (docs/CONCURRENCY.md: the checkpoints take no locks).
  DeadlineChecker checker(options.deadline);
  VIST_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                        QueryCompiledImpl(*snap, vist_plan->compiled(),
                                          profile,
                                          /*collect_doc_ids=*/true,
                                          &checker));
  if (!options.verify) return ids;

  if (!options_.store_documents) {
    return Status::InvalidArgument(
        "verified queries require store_documents");
  }
  // Verification work (document fetches hit the doc-store B+ tree) is
  // charged to the same profile on top of the matching deltas.
  obs::ProfileScope verify_scope(profile);
  std::vector<uint64_t> verified;
  for (uint64_t doc_id : ids) {
    if (checker.Expired()) {
      return Status::DeadlineExceeded("deadline expired during verification");
    }
    VIST_ASSIGN_OR_RETURN(std::string text, GetDocumentImpl(*snap, doc_id));
    VIST_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(text));
    const bool embedded =
        VerifyEmbedding(vist_plan->tree(), *doc.root(), &checker);
    if (checker.Expired()) {
      // The verifier unwound on expiry; its answer is meaningless.
      return Status::DeadlineExceeded("deadline expired during verification");
    }
    if (embedded) verified.push_back(doc_id);
  }
  if (profile != nullptr) {
    profile->verified = true;
    profile->verified_results = verified.size();
  }
  return verified;
}

Status VistIndex::StoreDocumentText(uint64_t doc_id, const std::string& text) {
  const size_t chunk_size =
      NodePage::MaxCellSize(options_.page_size - kPageTrailerSize) - 64;
  uint32_t chunk = 0;
  size_t offset = 0;
  do {
    const size_t len = std::min(chunk_size, text.size() - offset);
    VIST_RETURN_IF_ERROR(doc_store_->Put(DocChunkKey(doc_id, chunk),
                                         Slice(text.data() + offset, len)));
    offset += len;
    ++chunk;
  } while (offset < text.size());
  return Status::OK();
}

Status VistIndex::DeleteDocumentText(uint64_t doc_id) {
  uint32_t chunk = 0;
  while (true) {
    Status s = doc_store_->Delete(DocChunkKey(doc_id, chunk));
    if (s.IsNotFound()) break;
    VIST_RETURN_IF_ERROR(s);
    ++chunk;
  }
  return chunk == 0 ? Status::NotFound("document text not stored")
                    : Status::OK();
}

Result<std::string> VistIndex::GetDocument(uint64_t doc_id) {
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  return GetDocumentImpl(*snap, doc_id);
}

Result<std::string> VistIndex::GetDocumentImpl(const VistSnapshot& snap,
                                               uint64_t doc_id) {
  if (!options_.store_documents) {
    return Status::InvalidArgument("index does not store documents");
  }
  std::string text;
  uint32_t chunk = 0;
  while (true) {
    auto piece = snap.doc_store_.Get(DocChunkKey(doc_id, chunk));
    if (piece.status().IsNotFound()) break;
    VIST_RETURN_IF_ERROR(piece.status());
    text += *piece;
    ++chunk;
  }
  if (chunk == 0) return Status::NotFound("no stored document with this id");
  return text;
}

Result<IndexStats> VistIndex::Stats() {
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  IndexStats stats;
  // page_count is an atomic read; everything else comes from the pinned
  // version, so the cardinalities are mutually consistent.
  stats.size_bytes = file_->size_bytes();
  stats.max_depth = snap->version_->slots[kMaxDepthSlot];
  stats.underflow_runs = snap->version_->slots[kUnderflowSlot];
  NodeRecord root;
  VIST_RETURN_IF_ERROR(LoadRootRecordAt(snap->entry_tree_, &root));
  stats.num_documents = root.refcount;
  VIST_ASSIGN_OR_RETURN(uint64_t entries, snap->entry_tree_.CountEntries());
  stats.num_entries = entries - 1;  // minus the virtual-root record
  return stats;
}

Result<VistIndex::IntegrityReport> VistIndex::CheckIntegrity() {
  // One pinned snapshot: the four passes see a single committed version
  // even while writers commit, so a clean live index can be checked under
  // concurrent mutation without false positives.
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  IntegrityReport report;
  auto complain = [&report](std::string problem) {
    if (report.problems.size() < 64) {  // cap the noise on mass damage
      report.problems.push_back(std::move(problem));
    }
  };

  // Pass 1: decode every entry; collect (n -> scope end, parent_n).
  struct NodeInfo {
    uint64_t end = 0;  // n + size
    uint64_t parent_n = 0;
    uint64_t refcount = 0;
  };
  std::map<uint64_t, NodeInfo> nodes;
  {
    auto it = snap->entry_tree_.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      if (it->key().ToString() == root_key_) continue;
      Slice dkey;
      uint64_t parent_n = 0, n = 0;
      NodeRecord record;
      if (!DecodeEntryKey(it->key(), &dkey, &parent_n, &n) ||
          !DecodeNodeRecord(it->value(), &record)) {
        complain("undecodable entry");
        continue;
      }
      ++report.nodes;
      if (n == 0 || record.size == 0 || n + record.size > kMaxScope) {
        complain("node " + std::to_string(n) + ": invalid scope size " +
                 std::to_string(record.size));
        continue;
      }
      if (!nodes.emplace(n, NodeInfo{n + record.size, parent_n,
                                     record.refcount})
               .second) {
        complain("duplicate label " + std::to_string(n));
      }
    }
    VIST_RETURN_IF_ERROR(it->status());
  }

  // Pass 2 (over the sorted labels): scopes must form a laminar family —
  // each scope either nests strictly inside the innermost open scope or
  // begins after it ends — and each parent link must name the node whose
  // scope immediately encloses the child.
  std::vector<std::pair<uint64_t, uint64_t>> open;  // (n, end) stack
  for (const auto& [n, info] : nodes) {
    while (!open.empty() && n >= open.back().second) open.pop_back();
    if (!open.empty() && info.end > open.back().second) {
      complain("node " + std::to_string(n) + ": scope crosses node " +
               std::to_string(open.back().first));
    }
    if (info.parent_n == 0) {
      if (!open.empty()) {
        complain("node " + std::to_string(n) +
                 ": claims the virtual root as parent but lies inside "
                 "node " +
                 std::to_string(open.back().first));
      }
    } else if (open.empty() || open.back().first != info.parent_n) {
      complain("node " + std::to_string(n) + ": parent link " +
               std::to_string(info.parent_n) +
               " is not the enclosing node");
    }
    open.emplace_back(n, info.end);
  }

  // Pass 3: DocId labels must resolve to live nodes; collect the sorted
  // label list for refcount accounting.
  std::vector<uint64_t> doc_labels;
  {
    auto it = snap->docid_tree_.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      uint64_t n = 0, doc_id = 0;
      if (!DecodeDocIdKey(it->key(), &n, &doc_id)) {
        complain("undecodable DocId entry");
        continue;
      }
      ++report.doc_entries;
      if (nodes.find(n) == nodes.end()) {
        complain("document " + std::to_string(doc_id) +
                 " attached to nonexistent node " + std::to_string(n));
      }
      doc_labels.push_back(n);
    }
    VIST_RETURN_IF_ERROR(it->status());
  }
  std::sort(doc_labels.begin(), doc_labels.end());

  // Pass 4: a node's refcount must equal the number of documents attached
  // at or under it (its scope contains exactly its subtree's labels).
  for (const auto& [n, info] : nodes) {
    const auto lo =
        std::lower_bound(doc_labels.begin(), doc_labels.end(), n);
    const auto hi =
        std::lower_bound(doc_labels.begin(), doc_labels.end(), info.end);
    const uint64_t expected = static_cast<uint64_t>(hi - lo);
    if (info.refcount != expected) {
      complain("node " + std::to_string(n) + ": refcount " +
               std::to_string(info.refcount) + " but " +
               std::to_string(expected) + " documents in scope");
    }
  }
  NodeRecord root;
  VIST_RETURN_IF_ERROR(LoadRootRecordAt(snap->entry_tree_, &root));
  if (root.refcount != doc_labels.size()) {
    complain("virtual root refcount " + std::to_string(root.refcount) +
             " but " + std::to_string(doc_labels.size()) + " documents");
  }
  return report;
}

Status VistIndex::Flush() {
  WriterLock lock(mu_);
  Status s = symtab_.Save(SymbolsPath(dir_));
  if (s.ok()) s = file_->Flush();
  // Flush publishes no new version, but it is a public mutating entry
  // point, so the uniform epoch contract still applies.
  BumpEpoch();
  return s;
}

}  // namespace vist
