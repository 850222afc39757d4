#include "baseline/node_index.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>

#include "common/coding.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "query/path_parser.h"
#include "seq/key_codec.h"

namespace vist {
namespace {

constexpr int kTreeSlot = 0;
// Scalar slots, versioned with the tree root so a snapshot's scalars match
// its tree.
constexpr int kMaxDepthSlot = 1;
constexpr int kNumDocumentsSlot = 2;

// Entry key: symbol (8B BE) ‖ doc id (8B BE) ‖ start (4B BE); value:
// end (4B BE) ‖ level (4B BE). Per-symbol postings arrive sorted by
// (doc, start) for free.
std::string EncodeRegionKey(Symbol symbol, uint64_t doc, uint32_t start) {
  std::string key;
  PutFixed64BE(&key, symbol);
  PutFixed64BE(&key, doc);
  PutFixed32BE(&key, start);
  return key;
}

std::string EncodeRegionValue(uint32_t end, uint32_t level) {
  std::string value;
  PutFixed32BE(&value, end);
  PutFixed32BE(&value, level);
  return value;
}

// Compiled form of a query: just the parsed query tree. Symbols are looked
// up at execution time (EvalStep), so the plan is always cacheable — there
// is no compile-time conclusion a later insert could invalidate.
class NodeQueryPlan : public QueryPlan {
 public:
  NodeQueryPlan(std::string path, query::QueryTree tree)
      : QueryPlan(std::move(path), /*cacheable=*/true),
        tree_(std::move(tree)) {}

  const query::QueryTree& tree() const { return tree_; }

  size_t MemoryUsage() const override {
    return sizeof(*this) + path().size() +
           query::QueryTreeMemoryUsage(*tree_.root);
  }

 private:
  const query::QueryTree tree_;
};

}  // namespace

Result<std::unique_ptr<NodeIndex>> NodeIndex::Create(
    const std::string& dir, SymbolTable* symtab,
    const NodeIndexOptions& options) {
  VIST_CHECK(symtab != nullptr);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  std::unique_ptr<NodeIndex> index(new NodeIndex(symtab, options));
  PagerOptions pager_options;
  pager_options.page_size = options.page_size;
  pager_options.durability = options.durability;
  pager_options.env = options.env;
  VIST_ASSIGN_OR_RETURN(index->file_,
                        TreeFile::Open(dir + "/nodes.db", pager_options,
                                       options.buffer_pool_pages));
  TreeFile* file = index->file_.get();
  auto create_tree = [&]() -> Status {
    VIST_ASSIGN_OR_RETURN(index->tree_, file->CreateTree(kTreeSlot));
    return Status::OK();
  };
  VIST_RETURN_IF_ERROR(file->Write(/*epoch=*/0, create_tree));
  return index;
}

Status NodeIndex::PutRegion(Symbol symbol, const Region& region) {
  return tree_->Put(EncodeRegionKey(symbol, region.doc, region.start),
                    EncodeRegionValue(region.end, region.level));
}

void NodeIndex::EnumerateRegions(const xml::Node& root, uint64_t doc_id,
                                 std::vector<std::pair<Symbol, Region>>* out) {
  // Region labeling: start = preorder rank, end = rank of the last
  // descendant, level = depth. Attribute/text values are labeled as child
  // nodes of their owner (the unified content+structure treatment, so the
  // comparison with ViST is apples-to-apples).
  uint32_t counter = 0;
  std::function<uint32_t(const xml::Node&, uint32_t)> label =
      [&](const xml::Node& node, uint32_t level) -> uint32_t {
    const uint32_t start = counter++;
    uint32_t last = start;
    if (node.is_attribute()) {
      if (!node.value().empty()) {
        const uint32_t vstart = counter++;
        out->emplace_back(SymbolTable::ValueSymbol(node.value()),
                          Region{doc_id, vstart, vstart, level + 1});
        last = vstart;
      }
    } else {
      for (const auto& child : node.children()) {
        if (child->is_text()) {
          if (child->value().empty()) continue;
          const uint32_t vstart = counter++;
          out->emplace_back(SymbolTable::ValueSymbol(child->value()),
                            Region{doc_id, vstart, vstart, level + 1});
          last = vstart;
        } else {
          last = label(*child, level + 1);
        }
      }
    }
    out->emplace_back(symtab_->Intern(node.name()),
                      Region{doc_id, start, last, level});
    return last;
  };
  label(root, 0);
}

Status NodeIndex::InsertDocument(const xml::Node& root, uint64_t doc_id) {
  WriterLock lock(mu_);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    return InsertDocumentImpl(root, doc_id);
  });
  // Install-then-bump (the QueryableIndex epoch contract).
  BumpEpoch();
  return s;
}

Status NodeIndex::InsertDocumentImpl(const xml::Node& root, uint64_t doc_id) {
  file_->SetWorkingSlot(kNumDocumentsSlot,
                        file_->WorkingSlot(kNumDocumentsSlot) + 1);
  uint64_t max_depth = file_->WorkingSlot(kMaxDepthSlot);
  std::vector<std::pair<Symbol, Region>> entries;
  EnumerateRegions(root, doc_id, &entries);
  for (const auto& [symbol, region] : entries) {
    // Depth counts element/attribute nesting only, as before the
    // enumerator refactor (value leaves ride at their owner's depth).
    if (!IsValueSymbol(symbol)) {
      max_depth = std::max<uint64_t>(max_depth, region.level + 1);
    }
    VIST_RETURN_IF_ERROR(PutRegion(symbol, region));
  }
  file_->SetWorkingSlot(kMaxDepthSlot, max_depth);
  return Status::OK();
}

Status NodeIndex::DeleteDocument(const xml::Node& root, uint64_t doc_id) {
  WriterLock lock(mu_);
  Status s = file_->Write(epoch() + 1, [&]() VIST_REQUIRES(mu_) {
    return DeleteDocumentImpl(root, doc_id);
  });
  BumpEpoch();
  return s;
}

Status NodeIndex::DeleteDocumentImpl(const xml::Node& root, uint64_t doc_id) {
  const uint64_t docs = file_->WorkingSlot(kNumDocumentsSlot);
  if (docs > 0) file_->SetWorkingSlot(kNumDocumentsSlot, docs - 1);
  std::vector<std::pair<Symbol, Region>> entries;
  EnumerateRegions(root, doc_id, &entries);
  for (const auto& [symbol, region] : entries) {
    Status s =
        tree_->Delete(EncodeRegionKey(symbol, region.doc, region.start));
    // Two equal values under one parent label onto distinct preorder ranks,
    // so keys are unique per document — but deleting a never-inserted
    // document should not fail louder here than in the other engines.
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

std::shared_ptr<const NodeSnapshot> NodeIndex::PinSnapshot() const {
  std::shared_ptr<NodeSnapshot> snap(new NodeSnapshot(this));
  snap->version_ = file_->Pin();
  snap->tree_ = tree_->ViewAt(*snap->version_);
  return snap;
}

Result<std::shared_ptr<const Snapshot>> NodeIndex::GetSnapshot() {
  return std::shared_ptr<const Snapshot>(PinSnapshot());
}

Result<std::vector<NodeIndex::Region>> NodeIndex::FetchSymbol(
    const NodeSnapshot& snap, Symbol symbol, DeadlineChecker* checker) {
  std::vector<Region> regions;
  const std::string lo = EncodeRegionKey(symbol, 0, 0);
  auto it = snap.tree_.NewIterator();
  it->set_deadline_checker(checker);
  for (it->Seek(lo); it->Valid(); it->Next()) {
    if (DecodeFixed64BE(it->key().data()) != symbol) break;
    Region region;
    region.doc = DecodeFixed64BE(it->key().data() + 8);
    region.start = DecodeFixed32BE(it->key().data() + 16);
    region.end = DecodeFixed32BE(it->value().data());
    region.level = DecodeFixed32BE(it->value().data() + 4);
    regions.push_back(region);
  }
  VIST_RETURN_IF_ERROR(it->status());
  return regions;
}

Result<std::vector<NodeIndex::Region>> NodeIndex::FetchAllNames(
    const NodeSnapshot& snap, DeadlineChecker* checker) {
  // '*' has no posting of its own: scan every name symbol (this full-index
  // cost is precisely why the paper's Q3/Q4 hurt node indexes).
  std::vector<Region> regions;
  const std::string lo = EncodeRegionKey(1, 0, 0);
  const std::string hi = EncodeRegionKey(kStarSymbol, 0, 0);
  auto it = snap.tree_.NewIterator();
  it->set_deadline_checker(checker);
  for (it->Seek(lo); it->Valid() && it->key().Compare(hi) < 0; it->Next()) {
    Region region;
    region.doc = DecodeFixed64BE(it->key().data() + 8);
    region.start = DecodeFixed32BE(it->key().data() + 16);
    region.end = DecodeFixed32BE(it->value().data());
    region.level = DecodeFixed32BE(it->value().data() + 4);
    regions.push_back(region);
  }
  VIST_RETURN_IF_ERROR(it->status());
  std::sort(regions.begin(), regions.end());
  return regions;
}

Result<std::vector<NodeIndex::Region>> NodeIndex::StructuralJoin(
    const std::vector<Region>& parents, const std::vector<Region>& children,
    bool parent_child, uint64_t* joins, DeadlineChecker* checker) {
  ++*joins;
  std::vector<Region> result;
  for (const Region& parent : parents) {
    if (checker != nullptr && checker->Expired()) {
      return Status::DeadlineExceeded("deadline expired during join");
    }
    // Children of interest: same doc, start in (parent.start, parent.end].
    Region probe;
    probe.doc = parent.doc;
    probe.start = parent.start + 1;
    auto it = std::lower_bound(children.begin(), children.end(), probe);
    for (; it != children.end() && it->doc == parent.doc &&
           it->start <= parent.end;
         ++it) {
      if (!parent_child || it->level == parent.level + 1) {
        result.push_back(parent);
        break;
      }
    }
  }
  return result;
}

Result<std::vector<NodeIndex::Region>> NodeIndex::EvalStep(
    const NodeSnapshot& snap, const query::QueryNode& node, uint64_t* joins,
    DeadlineChecker* checker) {
  using query::QueryNode;
  if (checker != nullptr && checker->Expired()) {
    return Status::DeadlineExceeded("deadline expired during evaluation");
  }
  std::vector<Region> candidates;
  if (node.kind == QueryNode::Kind::kStar) {
    VIST_ASSIGN_OR_RETURN(candidates, FetchAllNames(snap, checker));
  } else {
    VIST_CHECK(node.kind == QueryNode::Kind::kName);
    auto symbol = symtab_->Lookup(node.name);
    if (!symbol.ok()) return std::vector<Region>{};  // name never indexed
    VIST_ASSIGN_OR_RETURN(candidates, FetchSymbol(snap, *symbol, checker));
  }
  for (const auto& child : node.children) {
    if (candidates.empty()) break;
    switch (child->kind) {
      case QueryNode::Kind::kValue: {
        VIST_ASSIGN_OR_RETURN(
            std::vector<Region> values,
            FetchSymbol(snap, SymbolTable::ValueSymbol(child->value),
                        checker));
        VIST_ASSIGN_OR_RETURN(
            candidates, StructuralJoin(candidates, values,
                                       /*parent_child=*/true, joins, checker));
        break;
      }
      case QueryNode::Kind::kName:
      case QueryNode::Kind::kStar: {
        VIST_ASSIGN_OR_RETURN(std::vector<Region> kids,
                              EvalStep(snap, *child, joins, checker));
        VIST_ASSIGN_OR_RETURN(
            candidates, StructuralJoin(candidates, kids,
                                       /*parent_child=*/true, joins, checker));
        break;
      }
      case QueryNode::Kind::kDescendant: {
        // The single target below '//' may sit at any depth.
        for (const auto& target : child->children) {
          VIST_ASSIGN_OR_RETURN(std::vector<Region> kids,
                                EvalStep(snap, *target, joins, checker));
          VIST_ASSIGN_OR_RETURN(
              candidates,
              StructuralJoin(candidates, kids, /*parent_child=*/false, joins,
                             checker));
        }
        break;
      }
    }
  }
  return candidates;
}

Result<std::shared_ptr<const QueryPlan>> NodeIndex::Prepare(
    std::string_view path, const QueryOptions& /*options*/) {
  // Pure parsing; no index or symbol-table state is read, so no lock.
  VIST_ASSIGN_OR_RETURN(query::PathExpr expr, query::ParsePath(path));
  VIST_ASSIGN_OR_RETURN(query::QueryTree tree, query::BuildQueryTree(expr));
  return std::shared_ptr<const QueryPlan>(
      std::make_shared<NodeQueryPlan>(std::string(path), std::move(tree)));
}

Result<std::vector<uint64_t>> NodeIndex::QueryWithPlan(
    const QueryPlan& plan, const QueryOptions& options) {
  const auto* node_plan = dynamic_cast<const NodeQueryPlan*>(&plan);
  if (node_plan == nullptr) {
    return Status::InvalidArgument("plan was not prepared by a NodeIndex");
  }
  // Metric reference: docs/OBSERVABILITY.md (baseline section).
  static obs::Counter& queries = obs::GetCounter("baseline.node.queries");
  static obs::Counter& joins = obs::GetCounter("baseline.node.joins");
  queries.Increment();
  obs::QueryProfile* profile = options.profile;
  if (profile != nullptr) {
    profile->engine = "node_index";
    profile->query = plan.path();
  }
  // Lock-free: the whole evaluation reads one pinned version.
  VIST_ASSIGN_OR_RETURN(
      std::shared_ptr<const NodeSnapshot> snap,
      ResolveSnapshot<NodeSnapshot>(options, [this] { return PinSnapshot(); }));
  obs::ProfileScope scope(profile);
  DeadlineChecker checker(options.deadline);
  uint64_t query_joins = 0;
  auto result = EvalTree(*snap, node_plan->tree(), &query_joins, &checker);
  joins.Increment(query_joins);
  if (profile != nullptr) {
    profile->joins += query_joins;
    if (result.ok()) {
      // Structural joins evaluate the query tree exactly, so there is no
      // separate verification stage and the candidates are final.
      profile->candidates += result->size();
      profile->verified_results = profile->candidates;
    }
  }
  return result;
}

Result<std::vector<uint64_t>> NodeIndex::EvalTree(const NodeSnapshot& snap,
                                                  const query::QueryTree& tree,
                                                  uint64_t* joins,
                                                  DeadlineChecker* checker) {
  std::vector<Region> matches;
  if (tree.root->kind == query::QueryNode::Kind::kDescendant) {
    for (const auto& target : tree.root->children) {
      VIST_ASSIGN_OR_RETURN(std::vector<Region> some,
                            EvalStep(snap, *target, joins, checker));
      matches.insert(matches.end(), some.begin(), some.end());
    }
  } else {
    VIST_ASSIGN_OR_RETURN(matches, EvalStep(snap, *tree.root, joins, checker));
    // Absolute path: the first step must be the document root.
    matches.erase(std::remove_if(matches.begin(), matches.end(),
                                 [](const Region& region) {
                                   return region.level != 0;
                                 }),
                  matches.end());
  }
  std::set<uint64_t> docs;
  for (const Region& region : matches) docs.insert(region.doc);
  return std::vector<uint64_t>(docs.begin(), docs.end());
}

Result<IndexStats> NodeIndex::Stats() {
  std::shared_ptr<const NodeSnapshot> snap = PinSnapshot();
  IndexStats stats;
  stats.size_bytes = file_->size_bytes();
  stats.num_documents = snap->version_->slots[kNumDocumentsSlot];
  stats.max_depth = snap->version_->slots[kMaxDepthSlot];
  return stats;
}

Status NodeIndex::Flush() {
  WriterLock lock(mu_);
  Status s = file_->Flush();
  BumpEpoch();
  return s;
}

}  // namespace vist
