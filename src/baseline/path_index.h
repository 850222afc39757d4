// Baseline A — a raw-path index in the style of Index Fabric [9], as used
// in the paper's evaluation (§4: "the Index Fabric algorithm (without the
// extra index for refined paths)").
//
// Every root-to-node path of every document (content values included, as
// leaf path components) is indexed as one key with a posting of doc ids.
// Query evaluation decomposes the query tree into its root-to-leaf paths,
// evaluates each path against the index — wildcard paths degrade into
// range scans — and joins (intersects) the resulting doc-id sets. The
// joins are exactly the cost ViST's whole-structure matching avoids, and
// docid-level joining makes this baseline's branching-query semantics even
// laxer than sequence matching (it cannot see whether two paths share any
// ancestor instance).
//
// Refined paths (the Index Fabric feature the paper's comparison switches
// off) are also implemented: a query pattern registered up front gets its
// own posting list, maintained by evaluating the pattern against every
// inserted document — so the registered queries are answered join-free,
// at exactly the per-insert maintenance cost the paper's §1 warns about
// ("the number of refined paths can have a huge impact on the size and
// the maintenance cost of the index").

#ifndef VIST_BASELINE_PATH_INDEX_H_
#define VIST_BASELINE_PATH_INDEX_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_shared_ptr.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/queryable_index.h"
#include "obs/query_profile.h"
#include "query/query_sequence.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"
#include "storage/tree_file.h"

namespace vist {

struct PathIndexOptions {
  uint32_t page_size = 4096;
  size_t buffer_pool_pages = 1024;
  size_t max_alternatives = 64;
  DurabilityLevel durability = DurabilityLevel::kProcessCrash;
  Env* env = nullptr;  // null: Env::Default(); must outlive the index
};

/// A registered refined path: the exact query string and its compiled
/// form, evaluated against every inserted document.
struct RefinedPath {
  std::string pattern;            // the exact query string
  query::CompiledQuery compiled;  // evaluated against every insert
  uint32_t id = 0;                // posting-key namespace
};

/// PathIndex's pinned read view: one published Version, the path tree
/// resolved from it, and the refined-path list current at pin time.
class PathSnapshot : public Snapshot {
 public:
  uint64_t epoch() const override { return version_->epoch; }

 private:
  friend class PathIndex;
  explicit PathSnapshot(const QueryableIndex* owner) : Snapshot(owner) {}

  std::shared_ptr<const Version> version_;
  BTreeView tree_;
  std::shared_ptr<const std::vector<RefinedPath>> refined_;
};

// Threading: same contract as VistIndex (docs/CONCURRENCY.md "Snapshots")
// so the Table-4 comparison measures index structure, not lock shape —
// mutations serialize behind the writer lock and commit as copy-on-write
// version installs; queries take no lock, pinning the current version
// instead, so a reader never waits on an in-flight writer.
class PathIndex : public QueryableIndex {
 public:
  /// Creates an empty path index in `dir`. The caller's symbol table is
  /// borrowed for query compilation and must outlive the index.
  static Result<std::unique_ptr<PathIndex>> Create(
      const std::string& dir, const SymbolTable* symtab,
      const PathIndexOptions& options = {});

  PathIndex(const PathIndex&) = delete;
  PathIndex& operator=(const PathIndex&) = delete;

  /// Registers a refined path: `path` becomes join-free to query. Must be
  /// called before the documents it should cover are inserted (Index
  /// Fabric likewise maintains refined paths from registration onward).
  Status AddRefinedPath(std::string_view path);

  /// Indexes every root-to-node path of the sequence (a sequence element's
  /// prefix + symbol *is* its root-to-node path), and maintains every
  /// registered refined path against it. Commits atomically: on error
  /// nothing is published and readers keep the previous version.
  Status InsertSequence(const Sequence& sequence, uint64_t doc_id);

  /// Removes a sequence previously inserted with this exact content under
  /// `doc_id` (the same contract as VistIndex::DeleteSequence), including
  /// its refined-path postings. Keys the insert wrote more than once
  /// (duplicate root-to-node paths) are simply gone after the first
  /// removal; the extra removals are not errors.
  Status DeleteSequence(const Sequence& sequence, uint64_t doc_id);

  /// Compiles a path expression into its root-to-leaf path patterns.
  /// Plans that met a name the (borrowed) symbol table does not know are
  /// not cacheable: another engine sharing the table may intern it later.
  /// Whether the path names a refined posting list is deliberately NOT
  /// baked into the plan — QueryWithPlan re-checks at execution time, so a
  /// plan compiled before AddRefinedPath still uses the posting list.
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;

  /// Executes a plan previously produced by this index's Prepare
  /// (InvalidArgument for any other plan). A plan whose path string equals
  /// a registered refined path is answered from its posting list with
  /// zero joins.
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) override;

  /// Pins the current committed version as a PathSnapshot — lock-free.
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override;

  /// Fills size_bytes, num_documents (sequences inserted), and max_depth;
  /// the ViST-specific fields stay zero.
  Result<IndexStats> Stats() override;

  /// Writes back every dirty page and syncs the page file.
  Status Flush() override;

  /// Refined-path pattern evaluations performed by inserts so far (the
  /// maintenance-cost metric).
  uint64_t refined_maintenance_checks() const {
    return refined_maintenance_checks_.load(std::memory_order_relaxed);
  }

  uint64_t size_bytes() const { return file_->size_bytes(); }

 private:
  PathIndex(const SymbolTable* symtab, PathIndexOptions options);

  /// Writer-side bodies, run inside an open write transaction.
  Status InsertSequenceImpl(const Sequence& sequence, uint64_t doc_id)
      VIST_REQUIRES(mu_);
  Status DeleteSequenceImpl(const Sequence& sequence, uint64_t doc_id)
      VIST_REQUIRES(mu_);

  /// Pins the current version plus the refined list (never fails).
  std::shared_ptr<const PathSnapshot> PinSnapshot() const;

  /// Plan body: evaluates each leaf-path pattern against `snap` and
  /// intersects (joins) the doc-id sets. Join count goes to `*joins`
  /// (local to the query) so concurrent queries don't scribble on one
  /// shared member. `checker` (borrowed, possibly null) supplies the
  /// cooperative-cancellation checkpoints for the scan loops.
  Result<std::vector<uint64_t>> EvalLeafPatterns(
      const PathSnapshot& snap,
      const std::vector<std::vector<Symbol>>& patterns, uint64_t* joins,
      DeadlineChecker* checker);

  /// Doc ids whose documents contain a path matching `pattern` (symbols
  /// with possible kStarSymbol / kDescendantSymbol).
  Result<std::vector<uint64_t>> EvalPathPattern(
      const PathSnapshot& snap, const std::vector<Symbol>& pattern,
      DeadlineChecker* checker);

  /// Scans one refined path's posting list.
  Result<std::vector<uint64_t>> ReadRefinedPosting(const PathSnapshot& snap,
                                                   uint32_t refined_id);

  /// Writer lock: serializes mutations against each other; queries never
  /// touch it (they pin versions instead).
  mutable SharedMutex mu_{LockRank::kIndexWriter};

  const SymbolTable* symtab_;
  PathIndexOptions options_;
  // Declared before tree_ (destroyed after it): the tree points into it.
  std::unique_ptr<TreeFile> file_;
  std::unique_ptr<BTree> tree_;

  /// Copy-on-write refined-path list: writers replace the whole vector
  /// under mu_; readers (and snapshots) grab the current one lock-free.
  AtomicSharedPtr<const std::vector<RefinedPath>> refined_;
  std::atomic<uint64_t> refined_maintenance_checks_{0};
};

}  // namespace vist

#endif  // VIST_BASELINE_PATH_INDEX_H_
