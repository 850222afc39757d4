// Baseline B — a node index in the style of XISS [16], the paper's second
// comparison point (§4, §5: "uses single elements/attributes as the basic
// unit of query... all other forms of expressions involve join operations").
//
// Every document node (elements, attributes, and their values) is region
// labeled (start, end, level) and posted under its symbol. A query tree is
// evaluated bottom-up as a series of structural joins: parent-child joins
// check containment plus level adjacency, ancestor-descendant joins
// containment only. Unlike sequence matching, this evaluates the query
// tree *exactly* (branches anchor on the same node instance), so its
// results equal ViST's verified results — DESIGN.md invariant 6.

#ifndef VIST_BASELINE_NODE_INDEX_H_
#define VIST_BASELINE_NODE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/queryable_index.h"
#include "obs/query_profile.h"
#include "query/path_expr.h"
#include "seq/symbol_table.h"
#include "storage/tree_file.h"
#include "xml/node.h"

namespace vist {

struct NodeIndexOptions {
  uint32_t page_size = 4096;
  size_t buffer_pool_pages = 1024;
  DurabilityLevel durability = DurabilityLevel::kProcessCrash;
  Env* env = nullptr;  // null: Env::Default(); must outlive the index
};

/// NodeIndex's pinned read view: one published Version plus the region
/// tree resolved from it.
class NodeSnapshot : public Snapshot {
 public:
  uint64_t epoch() const override { return version_->epoch; }

 private:
  friend class NodeIndex;
  explicit NodeSnapshot(const QueryableIndex* owner) : Snapshot(owner) {}

  std::shared_ptr<const Version> version_;
  BTreeView tree_;
};

// Threading: same contract as VistIndex (docs/CONCURRENCY.md "Snapshots")
// so the Table-4 comparison measures index structure, not lock shape —
// mutations serialize behind the writer lock and commit as copy-on-write
// version installs; queries take no lock, pinning the current version
// instead, so a reader never waits on an in-flight writer.
class NodeIndex : public QueryableIndex {
 public:
  /// Creates an empty node index in `dir`. Names are interned into the
  /// caller's symbol table (shared with the other engines in benchmarks),
  /// which must outlive the index.
  static Result<std::unique_ptr<NodeIndex>> Create(
      const std::string& dir, SymbolTable* symtab,
      const NodeIndexOptions& options = {});

  NodeIndex(const NodeIndex&) = delete;
  NodeIndex& operator=(const NodeIndex&) = delete;

  /// Region-labels and indexes one document. Commits atomically: on error
  /// nothing is published and readers keep the previous version.
  Status InsertDocument(const xml::Node& root, uint64_t doc_id);

  /// Removes a document previously inserted with this exact content under
  /// `doc_id` (the same contract as VistIndex::DeleteDocument): the delete
  /// re-derives the insert's region labels and removes each posting.
  Status DeleteDocument(const xml::Node& root, uint64_t doc_id);

  /// Parses a path expression into a query-tree plan. Always cacheable:
  /// symbol lookup happens at execution time, so the plan never pins a
  /// stale "name unknown" conclusion.
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;

  /// Executes a plan previously produced by this index's Prepare
  /// (InvalidArgument for any other plan) with exact XPath tree-pattern
  /// semantics.
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) override;

  /// Pins the current committed version as a NodeSnapshot — lock-free.
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override;

  /// Fills size_bytes, num_documents, and max_depth; the ViST-specific
  /// fields stay zero.
  Result<IndexStats> Stats() override;

  /// Writes back every dirty page and syncs the page file.
  Status Flush() override;

  uint64_t size_bytes() const { return file_->size_bytes(); }

 private:
  /// One region-labeled node occurrence.
  struct Region {
    uint64_t doc = 0;
    uint32_t start = 0;
    uint32_t end = 0;  // start of the last descendant (inclusive bound)
    uint32_t level = 0;

    bool operator<(const Region& other) const {
      return doc != other.doc ? doc < other.doc : start < other.start;
    }
  };

  NodeIndex(SymbolTable* symtab, NodeIndexOptions options)
      : symtab_(symtab), options_(options) {}

  /// Writer-side bodies, run inside an open write transaction.
  Status InsertDocumentImpl(const xml::Node& root, uint64_t doc_id)
      VIST_REQUIRES(mu_);
  Status DeleteDocumentImpl(const xml::Node& root, uint64_t doc_id)
      VIST_REQUIRES(mu_);

  /// Pins the current version and builds its tree view (never fails).
  std::shared_ptr<const NodeSnapshot> PinSnapshot() const;

  /// Region-labels `root` exactly as indexing does — start = preorder
  /// rank, end = rank of the last descendant, level = depth, values
  /// labeled as children of their owner — appending one (symbol, region)
  /// entry per labeled node. Insert and delete share it so both derive
  /// identical keys (interning is a no-op for names already seen).
  void EnumerateRegions(const xml::Node& root, uint64_t doc_id,
                        std::vector<std::pair<Symbol, Region>>* out);

  /// Plan body: bottom-up structural-join evaluation of the query tree
  /// against `snap` (lock-free). The join count accumulates into `*joins`
  /// (local to the query) so concurrent queries don't scribble on one
  /// shared member. `checker` (borrowed, possibly null) supplies the
  /// cooperative-cancellation checkpoints for posting scans and join
  /// loops.
  Result<std::vector<uint64_t>> EvalTree(const NodeSnapshot& snap,
                                         const query::QueryTree& tree,
                                         uint64_t* joins,
                                         DeadlineChecker* checker);

  Status PutRegion(Symbol symbol, const Region& region) VIST_REQUIRES(mu_);
  Result<std::vector<Region>> FetchSymbol(const NodeSnapshot& snap,
                                          Symbol symbol,
                                          DeadlineChecker* checker);
  Result<std::vector<Region>> FetchAllNames(const NodeSnapshot& snap,
                                            DeadlineChecker* checker);

  Result<std::vector<Region>> EvalStep(const NodeSnapshot& snap,
                                       const query::QueryNode& node,
                                       uint64_t* joins,
                                       DeadlineChecker* checker);
  Result<std::vector<Region>> StructuralJoin(
      const std::vector<Region>& parents, const std::vector<Region>& children,
      bool parent_child, uint64_t* joins, DeadlineChecker* checker);

  /// Writer lock: serializes mutations against each other; queries never
  /// touch it (they pin versions instead).
  mutable SharedMutex mu_{LockRank::kIndexWriter};

  SymbolTable* symtab_;
  NodeIndexOptions options_;
  // Declared before tree_ (destroyed after it): the tree points into it.
  std::unique_ptr<TreeFile> file_;
  std::unique_ptr<BTree> tree_;
};

}  // namespace vist

#endif  // VIST_BASELINE_NODE_INDEX_H_
