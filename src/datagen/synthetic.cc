#include "datagen/synthetic.h"

#include <functional>
#include <vector>

#include "common/logging.h"

namespace vist {
namespace {

// Builds "<letter><number>" by appending: GCC 12's -O3 -Wrestrict misfires
// on `"literal" + std::to_string(...)` (a prepend into the temporary).
std::string Numbered(char letter, uint64_t number) {
  std::string out(1, letter);
  out += std::to_string(number);
  return out;
}

std::string LevelName(int child_index) { return Numbered('e', child_index); }

}  // namespace

SyntheticGenerator::SyntheticGenerator(const SyntheticOptions& options)
    : options_(options), rng_(options.seed) {
  VIST_CHECK(options_.height >= 1 && options_.fanout >= 1);
  VIST_CHECK(options_.doc_size >= 1);
}

std::unique_ptr<xml::Node> SyntheticGenerator::RandomShape(int size) {
  // Frontier sampling over the conceptual (height, fanout) tree: each
  // candidate is a not-yet-selected child of a selected node.
  struct Candidate {
    xml::Node* parent;  // null for the root
    int depth;
    int child_index;
  };
  auto root = std::make_unique<xml::Node>(xml::NodeKind::kElement);
  root->set_name(LevelName(0));
  std::vector<Candidate> frontier;
  if (options_.height > 1) {
    for (int c = 0; c < options_.fanout; ++c) {
      frontier.push_back({root.get(), 2, c});
    }
  }
  for (int selected = 1; selected < size && !frontier.empty(); ++selected) {
    const size_t pick = rng_.Uniform(frontier.size());
    Candidate candidate = frontier[pick];
    frontier.erase(frontier.begin() + pick);
    xml::Node* node = candidate.parent->AddElement(
        LevelName(candidate.child_index));
    if (candidate.depth < options_.height) {
      for (int c = 0; c < options_.fanout; ++c) {
        frontier.push_back({node, candidate.depth + 1, c});
      }
    }
  }
  return root;
}

xml::Document SyntheticGenerator::NextDocument() {
  std::unique_ptr<xml::Node> root = RandomShape(options_.doc_size);
  if (options_.value_probability > 0) {
    std::function<void(xml::Node*)> attach = [&](xml::Node* node) {
      if (rng_.Bernoulli(options_.value_probability)) {
        node->AddText(Numbered('v', rng_.Uniform(options_.num_values)));
      }
      for (const auto& child : node->children()) {
        if (child->is_element()) attach(child.get());
      }
    };
    attach(root.get());
  }
  return xml::Document(std::move(root));
}

query::QueryTree SyntheticGenerator::NextQueryTree(int length,
                                                   bool value_predicate) {
  std::unique_ptr<xml::Node> shape = RandomShape(length);

  std::function<std::unique_ptr<query::QueryNode>(const xml::Node&)> convert =
      [&](const xml::Node& node) {
        auto qnode = std::make_unique<query::QueryNode>();
        qnode->kind = query::QueryNode::Kind::kName;
        qnode->name = node.name();
        for (const auto& child : node.children()) {
          if (child->is_element()) qnode->AddChild(convert(*child));
        }
        return qnode;
      };
  query::QueryTree tree;
  tree.root = convert(*shape);

  if (value_predicate && options_.num_values > 0) {
    // Attach an equality test to a random leaf.
    std::vector<query::QueryNode*> leaves;
    std::function<void(query::QueryNode*)> collect =
        [&](query::QueryNode* node) {
          if (node->children.empty()) leaves.push_back(node);
          for (const auto& child : node->children) collect(child.get());
        };
    collect(tree.root.get());
    query::QueryNode* leaf = leaves[rng_.Uniform(leaves.size())];
    auto value = std::make_unique<query::QueryNode>();
    value->kind = query::QueryNode::Kind::kValue;
    value->value = Numbered('v', rng_.Uniform(options_.num_values));
    leaf->AddChild(std::move(value));
  }
  return tree;
}

namespace {

// Renders one query node as a predicate body ("b[c][.='v']", ".//b", "*").
std::string RenderPredicate(const query::QueryNode& node) {
  using query::QueryNode;
  switch (node.kind) {
    case QueryNode::Kind::kValue:
      return ".='" + node.value + "'";
    case QueryNode::Kind::kDescendant: {
      std::string out;
      for (const auto& child : node.children) {
        out += ".//" + RenderPredicate(*child);
      }
      return out;
    }
    case QueryNode::Kind::kStar:
    case QueryNode::Kind::kName: {
      std::string out =
          node.kind == QueryNode::Kind::kStar ? "*" : node.name;
      for (const auto& child : node.children) {
        out += '[';
        out += RenderPredicate(*child);
        out += ']';
      }
      return out;
    }
  }
  return "";
}

}  // namespace

std::string SyntheticGenerator::QueryTreeToPath(const query::QueryTree& tree) {
  const query::QueryNode& root = *tree.root;
  const bool descendant = root.kind == query::QueryNode::Kind::kDescendant;
  const query::QueryNode* step = descendant ? root.children[0].get() : &root;
  std::string out = descendant ? "//" : "/";
  out += step->kind == query::QueryNode::Kind::kStar ? "*" : step->name;
  for (const auto& child : step->children) {
    out += '[';
    out += RenderPredicate(*child);
    out += ']';
  }
  return out;
}

}  // namespace vist
