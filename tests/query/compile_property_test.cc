// Property: for random query trees, compiling the tree directly and
// compiling its rendered path-expression string yield exactly the same
// alternative sequences — the renderer, parser, tree builder, and
// compiler agree on the query's meaning.

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "query/path_parser.h"
#include "query/query_sequence.h"

namespace vist {
namespace query {
namespace {

class CompilePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompilePropertyTest, TreeAndRenderedPathCompileIdentically) {
  SyntheticOptions options;
  options.height = 6;
  options.fanout = 5;
  options.num_values = 10;
  options.seed = GetParam();
  SyntheticGenerator gen(options);

  // Intern the generator's vocabulary.
  SymbolTable symtab;
  for (int i = 0; i < options.fanout; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    symtab.Intern(name);
  }

  for (int trial = 0; trial < 40; ++trial) {
    const int length = 2 + trial % 6;
    QueryTree tree = gen.NextQueryTree(length, trial % 2 == 0);
    std::string path = SyntheticGenerator::QueryTreeToPath(tree);

    auto direct = CompileQuery(tree, symtab);
    ASSERT_TRUE(direct.ok()) << path;
    auto reparsed = CompilePath(path, symtab);
    ASSERT_TRUE(reparsed.ok()) << path;

    ASSERT_EQ(direct->alternatives.size(), reparsed->alternatives.size())
        << path;
    for (size_t a = 0; a < direct->alternatives.size(); ++a) {
      EXPECT_EQ(direct->alternatives[a], reparsed->alternatives[a])
          << path << " alternative " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace query
}  // namespace vist
