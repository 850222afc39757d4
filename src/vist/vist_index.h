// VistIndex: the paper's primary contribution — a dynamic XML index built
// entirely on B+ trees (§3.4).
//
// On disk, an index is a directory:
//   index.db     one page file holding the combined D-/S-Ancestor B+ tree,
//                the DocId B+ tree, and (optionally) the document store
//   symbols.tbl  the interned element/attribute names
//   stats.bin    frozen schema statistics (statistical allocator only)
//   manifest.bin the creation options that must never change after Create
//
// Usage:
//   auto index = VistIndex::Create(dir, options);
//   index->InsertDocument(*doc.root(), /*doc_id=*/1);
//   auto ids = index->Query("/purchase//item[manufacturer='intel']");
//
// Threading (docs/CONCURRENCY.md "Snapshots"): one VistIndex can be shared
// across threads. Mutations (Insert*/Delete*/BulkLoad*/Flush) serialize
// behind the writer lock and run as copy-on-write transactions: each one
// builds the next tree version out-of-place and publishes it atomically
// (TreeFile::Write), so a failed mutation rolls back completely.
// Queries (Query/QueryCompiled/GetDocument/Stats/CheckIntegrity) take NO
// lock at all: each pins the current published version (a Snapshot) and
// reads only pages frozen in it, so readers never wait on a writer — not
// even one holding a multi-hundred-ms bulk insert open. A query observes
// exactly one committed version; GetSnapshot() hands that pin to callers
// for repeatable reads across queries (QueryOptions::snapshot). The
// durable state is still that of the last Flush(). The same contract, via
// the same shapes, applies to both baseline indexes so concurrent Table-4
// comparisons stay fair.

#ifndef VIST_VIST_VIST_INDEX_H_
#define VIST_VIST_VIST_INDEX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/queryable_index.h"
#include "obs/query_profile.h"
#include "query/query_sequence.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"
#include "storage/tree_file.h"
#include "vist/matcher.h"
#include "vist/schema_stats.h"
#include "vist/scope_allocator.h"

namespace vist {

struct VistOptions {
  /// Page size of index.db (the paper uses 2 KB Berkeley DB pages).
  uint32_t page_size = 4096;
  /// Buffer pool capacity in pages (runtime only, not persisted).
  /// 16384 x 4 KB = 64 MB, a modest cache by today's standards.
  size_t buffer_pool_pages = 16384;

  /// What a crash may cost (runtime only, not persisted): kProcessCrash
  /// keeps batches atomic against process crashes; kPowerLoss adds the
  /// fsync barriers that survive a power cut. See docs/DURABILITY.md.
  DurabilityLevel durability = DurabilityLevel::kProcessCrash;
  /// File-system seam for index.db and its journal (runtime only); null
  /// means Env::Default(). Must outlive the index.
  Env* env = nullptr;

  enum class AllocatorKind {
    kUniform,      // §3.4.1 "without clues": λ-geometric (Eq. 5-6)
    kStatistical,  // §3.4.1 "with clues": follow-set slots (Eq. 1-4)
  };
  AllocatorKind allocator = AllocatorKind::kUniform;
  /// λ: rough estimate of distinct successors per node (uniform allocator,
  /// and the statistical allocator's fallback).
  uint64_t lambda = 16;
  /// 1/d of every scope is reserved for scope-underflow runs.
  uint64_t reserve_divisor = 16;
  /// Statistical allocator: 1/d of the usable region for unseen symbols.
  uint64_t other_divisor = 8;

  /// Keep the serialized documents in the index (enables verified queries
  /// and GetDocument).
  bool store_documents = false;

  /// How documents become sequences (content indexing switches).
  SequenceOptions sequence;

  /// Sample statistics for the statistical allocator; borrowed during
  /// Create() (persisted to stats.bin, reloaded on Open).
  const SchemaStats* stats = nullptr;
};

// QueryOptions and IndexStats, shared by every engine, live with the
// QueryableIndex interface in exec/queryable_index.h.

/// VistIndex's pinned read view: one published Version plus B+ tree views
/// resolved from its roots. See exec/queryable_index.h (Snapshot) for the
/// contract; obtained via VistIndex::GetSnapshot().
class VistSnapshot : public Snapshot {
 public:
  uint64_t epoch() const override { return version_->epoch; }

 private:
  friend class VistIndex;
  explicit VistSnapshot(const QueryableIndex* owner) : Snapshot(owner) {}

  std::shared_ptr<const Version> version_;
  BTreeView entry_tree_;
  BTreeView docid_tree_;
  BTreeView doc_store_;  // invalid unless store_documents
};

class VistIndex : public QueryableIndex {
 public:
  /// Creates a fresh index in `dir` (created if missing; must not already
  /// contain an index).
  static Result<std::unique_ptr<VistIndex>> Create(const std::string& dir,
                                                   const VistOptions& options);

  /// Opens an existing index. Runtime fields of `options` (buffer pool) are
  /// honored; persisted fields come from the manifest.
  static Result<std::unique_ptr<VistIndex>> Open(const std::string& dir,
                                                 const VistOptions& options);

  ~VistIndex() override;

  VistIndex(const VistIndex&) = delete;
  VistIndex& operator=(const VistIndex&) = delete;

  /// Indexes a document (Algorithm 4). `doc_id` is caller-assigned and must
  /// be unique. Also stores the serialized document when store_documents.
  /// Like every mutation, commits atomically: on error nothing is
  /// published and readers keep seeing the previous version.
  Status InsertDocument(const xml::Node& root, uint64_t doc_id);

  /// Indexes a pre-built sequence (no document store entry).
  Status InsertSequence(const Sequence& sequence, uint64_t doc_id);

  /// Bulk-loads a whole corpus into a still-empty index. Runs the same
  /// labeling walk as InsertSequence, so the labels are those of inserting
  /// each sequence in order, but entries are staged in memory and written
  /// to the B+ trees in key order, which packs pages densely and clusters
  /// D-key ranges — the locality a one-at-a-time build cannot get.
  /// Memory: O(total entries).
  /// One copy-on-write transaction: concurrent readers see the empty
  /// index until the load commits, then the full corpus.
  Status BulkLoadSequences(
      const std::vector<std::pair<uint64_t, Sequence>>& documents);

  /// Removes a document previously inserted with this exact content.
  Status DeleteDocument(const xml::Node& root, uint64_t doc_id);
  Status DeleteSequence(const Sequence& sequence, uint64_t doc_id);

  /// Compiles a path expression (parse → query tree → query sequences
  /// against the symbol table) without executing it. The plan is cacheable
  /// unless compilation proved the query matches nothing — that proof can
  /// be invalidated by a later insert interning the missing name.
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;

  /// Executes a plan previously produced by this index's Prepare
  /// (InvalidArgument for any other plan).
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) override;

  /// Evaluates an already-compiled query (no verification available here —
  /// verification needs the query tree). With collect_doc_ids == false the
  /// matching work runs but DocId output is skipped (Figure 10's
  /// measurement mode) and the result is empty.
  Result<std::vector<uint64_t>> QueryCompiled(
      const query::CompiledQuery& compiled,
      obs::QueryProfile* profile = nullptr, bool collect_doc_ids = true);

  /// Returns the stored XML text of a document (store_documents only).
  Result<std::string> GetDocument(uint64_t doc_id);

  /// Pins the current committed version as a VistSnapshot — lock-free,
  /// never waits on a writer. See QueryableIndex::GetSnapshot.
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override;

  SymbolTable* symbols() { return &symtab_; }
  const VistOptions& options() const { return options_; }

  Result<IndexStats> Stats() override;

  /// fsck for the index: verifies every structural invariant of the
  /// virtual suffix tree — decodable entries, labels forming a laminar
  /// scope family, parent links pointing at enclosing nodes, DocId labels
  /// resolving to live nodes, and refcounts equal to the number of
  /// documents whose insertion path traverses each node. O(N log N) time,
  /// O(N) memory. Returns the findings; an empty `problems` means clean.
  /// Runs on one pinned snapshot, so it may overlap writers.
  struct IntegrityReport {
    uint64_t nodes = 0;
    uint64_t doc_entries = 0;
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
  };
  Result<IntegrityReport> CheckIntegrity();

  /// Persists the symbol table and commits the page file's current batch.
  /// All mutations between two Flush() calls form one atomic unit: after
  /// a crash, the index reopens in the state of the last Flush.
  Status Flush() override;

  /// Test hook: abandons all unflushed state as a crashed process would.
  /// The index object is unusable afterwards; reopen the directory.
  void SimulateCrashForTesting();

 private:
  VistIndex(std::string dir, VistOptions options);

  /// Writer-side bodies of the mutating entry points, for composition:
  /// e.g. InsertDocument = writer lock + TreeFile::Write of
  /// InsertSequenceImpl + StoreDocumentText. The REQUIRES annotations make
  /// the discipline compiler-checked; all of these additionally run inside
  /// an open write transaction.
  Status InsertSequenceImpl(const Sequence& sequence, uint64_t doc_id)
      VIST_REQUIRES(mu_);
  Status DeleteSequenceImpl(const Sequence& sequence, uint64_t doc_id)
      VIST_REQUIRES(mu_);
  Status BulkLoadSequencesImpl(
      const std::vector<std::pair<uint64_t, Sequence>>& documents)
      VIST_REQUIRES(mu_);

  /// Reader-side bodies: lock-free, reading only through `snap`'s views.
  Result<std::vector<uint64_t>> QueryCompiledImpl(
      const VistSnapshot& snap, const query::CompiledQuery& compiled,
      obs::QueryProfile* profile, bool collect_doc_ids,
      DeadlineChecker* checker = nullptr);
  Result<std::string> GetDocumentImpl(const VistSnapshot& snap,
                                      uint64_t doc_id);

  /// Pins the current version and builds its tree views (never fails).
  std::shared_ptr<const VistSnapshot> PinSnapshot() const;

  Status InitTrees(bool create);
  /// Writer-side root-record read (working tree).
  Status LoadRootRecord(NodeRecord* record) VIST_REQUIRES(mu_);
  /// Reader-side root-record read through a snapshot view.
  Status LoadRootRecordAt(const BTreeView& tree, NodeRecord* record) const;
  Status WriteRecord(const std::string& entry_key, const NodeRecord& record)
      VIST_REQUIRES(mu_);

  struct PathEntry {
    std::string key;  // entry key in the combined tree
    NodeRecord record;
    Symbol symbol = kInvalidSymbol;  // element symbol (root: invalid)
  };

  /// How the labeling walk finds an existing node: the lowest-labeled
  /// immediate child (dkey ‖ parent_n ‖ *) of node `parent_n`. Fills
  /// `child`'s key and record only when it returns true.
  using ChildLookup = std::function<Result<bool>(
      const std::string& dkey, uint64_t parent_n, PathEntry* child)>;

  /// The §3.4 labeling walk (Algorithm 4) that InsertSequence and
  /// BulkLoadSequences share. Extends `path`, which holds the virtual root,
  /// by one node per element: the node `find_child` returns, else a fresh
  /// scope from the allocator, else (scope underflow) an InsertUnderflowRun
  /// for the rest of the sequence. Then bumps every path node's refcount.
  /// Changed records live only in `path` (the caller writes them); the
  /// max-depth and underflow-run slots are updated in place.
  Status LabelPath(const Sequence& sequence, const ChildLookup& find_child,
                   std::vector<PathEntry>* path) VIST_REQUIRES(mu_);

  /// Visits the immediate children of node `parent_n` with D-key `dkey` —
  /// the contiguous range (dkey ‖ parent_n ‖ *) of the working tree — in
  /// label order until `visit` returns false: one iterator, one seek.
  Status ScanImmediateChildren(const std::string& dkey, uint64_t parent_n,
                               const std::function<bool(PathEntry)>& visit)
      VIST_REQUIRES(mu_);

  /// Scope underflow (§3.4.1): labels the remaining elements sequentially
  /// from the nearest ancestor reserve with room, rebuilding the path tail
  /// (duplicating the intermediate nodes the run bypasses).
  Status InsertUnderflowRun(const Sequence& sequence,
                            std::vector<PathEntry>* path) VIST_REQUIRES(mu_);

  /// Backtracking walk used by DeleteSequence.
  Result<bool> TryDelete(const Sequence& sequence, size_t i, uint64_t doc_id,
                         std::vector<PathEntry>* path) VIST_REQUIRES(mu_);

  Status StoreDocumentText(uint64_t doc_id, const std::string& text)
      VIST_REQUIRES(mu_);
  Status DeleteDocumentText(uint64_t doc_id) VIST_REQUIRES(mu_);

  // The engine scalars live in version meta slots (3 = max_depth,
  // 4 = underflow_runs): writers see the transaction's working values
  // below; readers take them from their pinned Version's slots.
  uint64_t max_depth() const VIST_REQUIRES(mu_) {
    return file_->WorkingSlot(3);
  }
  void set_max_depth(uint64_t d) VIST_REQUIRES(mu_) {
    file_->SetWorkingSlot(3, d);
  }
  uint64_t underflow_runs() const VIST_REQUIRES(mu_) {
    return file_->WorkingSlot(4);
  }
  void set_underflow_runs(uint64_t c) VIST_REQUIRES(mu_) {
    file_->SetWorkingSlot(4, c);
  }

  /// Writer lock: serializes mutations against each other. Queries never
  /// touch it (they pin versions instead) — the whole point of the
  /// copy-on-write design.
  mutable SharedMutex mu_{LockRank::kIndexWriter};

  const std::string dir_;
  VistOptions options_;
  SymbolTable symtab_;
  SchemaStats stats_;
  // Declared before the trees (destroyed after them): they point into it.
  std::unique_ptr<TreeFile> file_;
  std::unique_ptr<BTree> entry_tree_;
  std::unique_ptr<BTree> docid_tree_;
  std::unique_ptr<BTree> doc_store_;
  std::unique_ptr<ScopeAllocator> allocator_;
  std::string root_key_;
  bool crashed_ VIST_GUARDED_BY(mu_) = false;
};

}  // namespace vist

#endif  // VIST_VIST_VIST_INDEX_H_
