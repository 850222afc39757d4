#include "vist/matcher.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "obs/metrics.h"
#include "seq/key_codec.h"

namespace vist {
namespace {

using query::QuerySequence;
using query::QuerySequenceElement;

// Process-wide totals mirroring the per-query QueryProfile fields. Metric
// reference: docs/OBSERVABILITY.md (matcher section).
struct MatcherMetrics {
  obs::Counter& range_scans = obs::GetCounter("vist.matcher.range_scans");
  obs::Counter& entries_scanned =
      obs::GetCounter("vist.matcher.entries_scanned");
  obs::Counter& nodes_matched = obs::GetCounter("vist.matcher.nodes_matched");
  obs::Counter& docid_range_scans =
      obs::GetCounter("vist.matcher.docid_range_scans");

  static MatcherMetrics& Get() {
    static MatcherMetrics metrics;
    return metrics;
  }
};

// A query element's concrete binding during the search.
struct BoundMatch {
  std::vector<Symbol> prefix;
  Symbol symbol = kInvalidSymbol;
  NodeRecord record;
};

// One alternative's search. It owns one entry-tree cursor per query element
// and one DocId cursor, reused by every range scan of that element: each
// re-seek is a finger search from the cursor's pinned spine (see
// BTree::Iterator::Seek), so nearby D-key groups and S-Ancestor ranges cost
// few page loads. Recursion into element qi+1 uses only deeper cursors, so
// element qi's cursor keeps its position while the subtree is searched.
class Searcher {
 public:
  Searcher(const MatchContext& context, const QuerySequence& query,
           obs::QueryProfile* profile, std::vector<uint64_t>* results)
      : context_(context),
        query_(query),
        profile_(profile),
        results_(results),
        bound_(query.size()),
        docid_cursor_(NewCursor(context.docid_tree)) {
    entry_cursors_.reserve(query.size());
    for (size_t i = 0; i < query.size(); ++i) {
      entry_cursors_.push_back(NewCursor(context.entry_tree));
    }
  }

  Status Run() {
    // The virtual root's scope encloses every node.
    Search(0, Scope{0, kMaxScope});
    return status_;
  }

 private:
  std::unique_ptr<BTree::Iterator> NewCursor(const BTreeView& tree) const {
    std::unique_ptr<BTree::Iterator> it = tree.NewIterator();
    it->set_deadline_checker(context_.deadline);
    return it;
  }

  void Count(uint64_t obs::QueryProfile::* field, obs::Counter& total,
             uint64_t delta = 1) {
    total.Increment(delta);
    if (profile_ != nullptr) profile_->*field += delta;
  }

  // Cooperative cancellation checkpoint: sets status_ (sticky via the
  // checker) and returns true once the query's deadline has passed.
  bool DeadlineExpired() {
    if (context_.deadline == nullptr || !context_.deadline->Expired()) {
      return false;
    }
    status_ = Status::DeadlineExceeded("deadline expired during matching");
    return true;
  }

  // Matches query elements qi.. inside `enclosing`, the scope of the node
  // matched for element qi-1 (S-Ancestorship: labels in (n, n+size)).
  void Search(size_t qi, const Scope& enclosing) {
    if (!status_.ok()) return;
    if (DeadlineExpired()) return;
    if (qi == query_.size()) {
      if (context_.collect_doc_ids) CollectDocIds(bound_[qi - 1].record);
      return;
    }
    const QuerySequenceElement& elem = query_[qi];

    // Instantiate the pattern with the query-tree parent's concrete match
    // (§3.3: the parent's match "instantiates" the shared wildcards); what
    // remains unresolved is a trailing run of wildcards.
    std::vector<Symbol> required;
    size_t tail_from = 0;
    if (elem.parent >= 0) {
      const BoundMatch& parent = bound_[elem.parent];
      required = parent.prefix;
      required.push_back(parent.symbol);
      tail_from = query_[elem.parent].pattern.size() + 1;
    }
    size_t min_extra = 0;
    bool unbounded = false;
    for (size_t i = tail_from; i < elem.pattern.size(); ++i) {
      if (elem.pattern[i] == kStarSymbol) {
        ++min_extra;
      } else {
        VIST_CHECK(elem.pattern[i] == kDescendantSymbol)
            << "non-wildcard in instantiated pattern tail";
        unbounded = true;
      }
    }

    // '//' expands into "a series of '*' queries" (§3.3): one prefix-length
    // bucket per depth up to the deepest prefix in the index.
    const size_t depth_lo = required.size() + min_extra;
    const size_t depth_hi =
        unbounded ? std::max<uint64_t>(context_.max_depth, depth_lo)
                  : depth_lo;
    for (size_t depth = depth_lo;
         depth <= depth_hi && depth <= kMaxPrefixDepth && status_.ok();
         ++depth) {
      SearchDepth(qi, elem, required, depth, enclosing);
    }
  }

  // Scans all D-keys with elem.symbol, the given prefix length, and the
  // required known prefix; for each, range-scans its S-Ancestor entries
  // inside `enclosing` and recurses.
  void SearchDepth(size_t qi, const QuerySequenceElement& elem,
                   const std::vector<Symbol>& required, size_t depth,
                   const Scope& enclosing) {
    Count(&obs::QueryProfile::range_scans, MatcherMetrics::Get().range_scans);
    const std::string partial =
        EncodeDKeyPartial(elem.symbol, depth, required);
    const std::string partial_end = PrefixRangeEnd(partial);
    // A node is a descendant of the enclosing node x iff its parent label
    // lies in [x.n, x.n + size) — see seq/key_codec.h.
    const uint64_t parent_lo = enclosing.n;
    const uint64_t parent_hi = enclosing.n + enclosing.size;

    BTree::Iterator& it = *entry_cursors_[qi];
    it.Seek(partial);
    while (status_.ok() && it.Valid() &&
           (partial_end.empty() || it.key().Compare(partial_end) < 0)) {
      Slice dkey_slice;
      uint64_t parent_n = 0, n = 0;
      if (!DecodeEntryKey(it.key(), &dkey_slice, &parent_n, &n)) {
        status_ = Status::Corruption("malformed entry key in index");
        return;
      }
      // Once per D-key group: copy the D-key (the cursor moves on) and bind
      // its symbol and prefix; only the record changes per entry below.
      const std::string dkey = dkey_slice.ToString();
      BoundMatch& slot = bound_[qi];
      slot.symbol = elem.symbol;
      if (!DecodeDKey(dkey, &slot.symbol, &slot.prefix)) {
        status_ = Status::Corruption("malformed D-key in index");
        return;
      }

      // S-Ancestorship range query within this D-key group.
      it.Seek(EncodeEntryKey(dkey, parent_lo, 0));
      while (it.Valid() && it.key().StartsWith(dkey)) {
        if (DeadlineExpired()) return;
        Count(&obs::QueryProfile::entries_scanned,
              MatcherMetrics::Get().entries_scanned);
        Slice seen_dkey;
        if (!DecodeEntryKey(it.key(), &seen_dkey, &parent_n, &n) ||
            seen_dkey != Slice(dkey)) {
          break;  // a longer D-key sharing the byte prefix: out of group
        }
        if (parent_n >= parent_hi) break;
        if (!DecodeNodeRecord(it.value(), &slot.record)) {
          status_ = Status::Corruption("malformed node record in index");
          return;
        }
        slot.record.n = n;
        slot.record.parent_n = parent_n;
        Count(&obs::QueryProfile::nodes_matched,
              MatcherMetrics::Get().nodes_matched);
        Search(qi + 1, slot.record.scope());
        if (!status_.ok()) return;
        it.Next();
      }
      if (!it.status().ok()) {
        status_ = it.status();
        return;
      }
      // Jump to the next D-key group in the wildcard range.
      const std::string next_group = PrefixRangeEnd(dkey);
      if (next_group.empty()) break;
      it.Seek(next_group);
    }
    if (!it.status().ok()) status_ = it.status();
  }

  // Final step of Algorithm 2: all documents attached at or under the last
  // matched node, i.e. DocId keys with n ∈ [node.n, node.n + size).
  void CollectDocIds(const NodeRecord& node) {
    Count(&obs::QueryProfile::docid_range_scans,
          MatcherMetrics::Get().docid_range_scans);
    BTree::Iterator& it = *docid_cursor_;
    const std::string lo = EncodeDocIdKey(node.n, 0);
    const uint64_t hi = node.n + node.size;
    for (it.Seek(lo); it.Valid(); it.Next()) {
      if (DeadlineExpired()) return;
      uint64_t n = 0, doc_id = 0;
      if (!DecodeDocIdKey(it.key(), &n, &doc_id)) {
        status_ = Status::Corruption("malformed DocId key in index");
        return;
      }
      if (n >= hi) break;
      results_->push_back(doc_id);
    }
    if (!it.status().ok()) status_ = it.status();
  }

  const MatchContext& context_;
  const QuerySequence& query_;
  obs::QueryProfile* profile_;
  std::vector<uint64_t>* results_;  // unsorted, with repeats
  std::vector<BoundMatch> bound_;
  std::vector<std::unique_ptr<BTree::Iterator>> entry_cursors_;
  std::unique_ptr<BTree::Iterator> docid_cursor_;
  Status status_;
};

}  // namespace

Result<std::vector<uint64_t>> MatchCompiledQuery(
    const MatchContext& context, const query::CompiledQuery& compiled,
    obs::QueryProfile* profile) {
  VIST_CHECK(context.entry_tree.valid() && context.docid_tree.valid());
  obs::ProfileScope scope(profile);
  if (profile != nullptr) {
    profile->alternatives += compiled.alternatives.size();
  }
  std::vector<uint64_t> results;
  for (const QuerySequence& alt : compiled.alternatives) {
    if (alt.empty()) continue;
    Searcher searcher(context, alt, profile, &results);
    VIST_RETURN_IF_ERROR(searcher.Run());
  }
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  if (profile != nullptr) {
    // A later verification stage (VistIndex::Query with verify) narrows
    // verified_results; until then the two are equal by convention.
    profile->candidates += results.size();
    profile->verified_results = profile->candidates;
  }
  return results;
}

}  // namespace vist
