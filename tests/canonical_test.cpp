// Canonical-form and value-cache suite (ISSUE satellite: cache
// correctness is a soundness property — a wrong hit silently corrupts a
// figure, so the invariance and conservation laws are pinned by property
// tests, not spot checks).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "fnv1a.hpp"
#include "games/affinity.hpp"
#include "games/canonical.hpp"
#include "games/generators.hpp"
#include "games/value_engine.hpp"
#include "games/xor_game.hpp"
#include "util/proptest.hpp"

namespace {

using ftl::games::AffinityGraph;
using ftl::games::CachedXorValue;
using ftl::games::canonical_form;
using ftl::games::CanonicalForm;
using ftl::games::CanonicalOptions;
using ftl::games::relabel_cost_matrix;
using ftl::games::XorGame;
using ftl::games::XorValueCache;
using ftl::proptest::CaseResult;
using ftl::proptest::for_all;
using ftl::proptest::Options;
using ftl::util::Rng;

using Matrix = std::vector<std::vector<double>>;

Options suite(const std::string& name, std::size_t cases) {
  Options o;
  o.name = name;
  o.cases = cases;
  return o;
}

struct Relabeling {
  std::vector<std::size_t> row_perm, col_perm;
  std::vector<int> row_sign, col_sign;
};

Relabeling random_relabeling(std::size_t nx, std::size_t ny, Rng& rng) {
  Relabeling r;
  r.row_perm.resize(nx);
  std::iota(r.row_perm.begin(), r.row_perm.end(), std::size_t{0});
  rng.shuffle(r.row_perm);
  r.col_perm.resize(ny);
  std::iota(r.col_perm.begin(), r.col_perm.end(), std::size_t{0});
  rng.shuffle(r.col_perm);
  for (std::size_t x = 0; x < nx; ++x) {
    r.row_sign.push_back(rng.bernoulli(0.5) ? 1 : -1);
  }
  for (std::size_t y = 0; y < ny; ++y) {
    r.col_sign.push_back(rng.bernoulli(0.5) ? 1 : -1);
  }
  return r;
}

struct InvarianceCase {
  Matrix m;
  Matrix relabeled;
};

InvarianceCase random_invariance_case(Rng& rng) {
  const std::size_t nx =
      2 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{4}));
  const std::size_t ny =
      2 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{4}));
  // Mix generic games with affinity games: the latter have repeated
  // magnitudes and exact zeros, which is where naive canonicalisers break.
  Matrix m;
  if (rng.bernoulli(0.5)) {
    m = ftl::games::random_xor_game(nx, ny, rng).cost_matrix();
  } else {
    const std::size_t n =
        3 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{5}));
    m = XorGame::from_affinity(AffinityGraph::random(n, rng.uniform(), rng),
                               rng.bernoulli(0.5))
            .cost_matrix();
  }
  const auto g = random_relabeling(m.size(), m.front().size(), rng);
  return {m, relabel_cost_matrix(m, g.row_perm, g.col_perm, g.row_sign,
                                 g.col_sign)};
}

TEST(Canonical, FormIsInvariantUnderRelabelingsAndSignFlips) {
  const auto r = for_all(
      suite("canonical-invariance", 200), random_invariance_case,
      [](const InvarianceCase& c) {
        const CanonicalForm a = canonical_form(c.m);
        const CanonicalForm b = canonical_form(c.relabeled);
        // The cap decision is label-independent: both labelings
        // canonicalise, or both bail.
        if (a.complete != b.complete) {
          return CaseResult::fail("bail decision depends on the labeling");
        }
        if (!a.complete) return CaseResult::pass();
        if (a.key() != b.key()) {
          return CaseResult::fail(
              "equivalent games canonicalise differently");
        }
        if (a.nodes != b.nodes) {
          return CaseResult::fail("node count depends on the labeling");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(Canonical, FormIsIdempotent) {
  const auto r = for_all(
      suite("canonical-idempotent", 120),
      [](Rng& rng) { return random_invariance_case(rng).m; },
      [](const Matrix& m) {
        const CanonicalForm a = canonical_form(m);
        if (!a.complete) return CaseResult::pass();
        Matrix as_matrix(a.nx, std::vector<double>(a.ny, 0.0));
        for (std::size_t x = 0; x < a.nx; ++x) {
          for (std::size_t y = 0; y < a.ny; ++y) {
            as_matrix[x][y] = a.matrix[x * a.ny + y];
          }
        }
        const CanonicalForm b = canonical_form(as_matrix);
        if (!b.complete || b.matrix != a.matrix) {
          return CaseResult::fail("canonical form is not a fixed point");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(Canonical, NegativeZeroEntriesNormalise) {
  // Zero-probability inputs with f = 1 produce literal -0.0 cost entries;
  // they must serialise identically to +0.0.
  const Matrix pos{{0.5, 0.0}, {0.0, 0.5}};
  const Matrix neg{{0.5, -0.0}, {-0.0, 0.5}};
  EXPECT_EQ(canonical_form(pos).key(), canonical_form(neg).key());
}

TEST(Canonical, HighlySymmetricMatricesBailOutConsistently) {
  // The complete 12-vertex affinity game is automorphism-rich enough to
  // blow past the node cap; the decision must not depend on the labeling.
  Rng rng(7);
  const Matrix k12 =
      XorGame::from_affinity(AffinityGraph::random(12, 1.0, rng), false)
          .cost_matrix();
  const CanonicalForm a = canonical_form(k12);
  EXPECT_FALSE(a.complete);
  EXPECT_TRUE(a.key().empty());

  const auto g = random_relabeling(12, 12, rng);
  const CanonicalForm b = canonical_form(
      relabel_cost_matrix(k12, g.row_perm, g.col_perm, g.row_sign,
                          g.col_sign));
  EXPECT_FALSE(b.complete);

  // The cap is the only thing in the way: the complete *8*-vertex game
  // overruns the default cap too (~110k placements) but canonicalises —
  // identically across labelings — once the cap is raised. (K12 is out of
  // reach at any cap: its tie tree is factorially large.)
  const Matrix k8 =
      XorGame::from_affinity(AffinityGraph::random(8, 1.0, rng), false)
          .cost_matrix();
  EXPECT_FALSE(canonical_form(k8).complete);
  CanonicalOptions roomy;
  roomy.node_cap = 500'000;
  const CanonicalForm c8 = canonical_form(k8, roomy);
  ASSERT_TRUE(c8.complete);
  const auto g8 = random_relabeling(8, 8, rng);
  const CanonicalForm c8r = canonical_form(
      relabel_cost_matrix(k8, g8.row_perm, g8.col_perm, g8.row_sign,
                          g8.col_sign),
      roomy);
  ASSERT_TRUE(c8r.complete);
  EXPECT_EQ(c8.key(), c8r.key());
}

// Every node count, cap decision and key, folded into one hash. The
// constant is the output of the double-valued search that the integer-code
// search replaced, so a change to any node count, cap decision or key moves
// it. The search only compares and negates, so the constant does not depend
// on the platform's floating-point library.
TEST(Canonical, SearchIsPinnedAtParent) {
  CanonicalOptions opts;
  opts.node_cap = 2'000;  // keeps the searches that hit the cap cheap
  ftl::test::Fnv1a h;
  const auto fold = [&](const Matrix& m) {
    const CanonicalForm f = canonical_form(m, opts);
    h.u64(f.nodes);
    h.u64(f.complete ? 1 : 0);
    h.str(f.key());
  };

  // Sweep-style affinity games at every density, each also under one
  // random relabeling.
  Rng rng(1717);
  for (const std::size_t n : {8, 10, 12}) {
    for (int i = 0; i <= 10; ++i) {
      for (int g = 0; g < 3; ++g) {
        const Matrix m =
            XorGame::from_affinity(
                AffinityGraph::random(n, static_cast<double>(i) / 10.0, rng))
                .cost_matrix();
        fold(m);
        const auto r = random_relabeling(m.size(), m.front().size(), rng);
        fold(relabel_cost_matrix(m, r.row_perm, r.col_perm, r.row_sign,
                                 r.col_sign));
      }
    }
  }

  // Random matrices over four magnitudes of both signs and +-0.
  constexpr double kPalette[] = {0.0,    -0.0,  0.125, -0.125, 0.25,
                                 -0.25,  0.375, -0.375, 0.5,   -0.5};
  for (int t = 0; t < 80; ++t) {
    const std::size_t nx = 2 + rng.uniform_int(std::uint64_t{7});
    const std::size_t ny = 2 + rng.uniform_int(std::uint64_t{7});
    Matrix m(nx, std::vector<double>(ny, 0.0));
    for (auto& row : m) {
      for (double& v : row) {
        v = kPalette[rng.uniform_int(std::uint64_t{std::size(kPalette)})];
      }
    }
    fold(m);
  }

  EXPECT_EQ(h.h, 0x93ac6e0221eaf43fULL);
}

TEST(CanonicalCache, EquivalentGamesHitAfterOneInsert) {
  const auto r = for_all(
      suite("cache-equivalent-hit", 120), random_invariance_case,
      [](const InvarianceCase& c) {
        XorValueCache cache;
        if (cache.lookup(c.m).has_value()) {
          return CaseResult::fail("hit in an empty cache");
        }
        const CachedXorValue v{0.25, 0.5, true};
        cache.insert(c.m, v);

        // Byte-identical repeat: exact hit.
        const auto exact = cache.lookup(c.m);
        if (!exact.has_value() || exact->classical_bias != v.classical_bias) {
          return CaseResult::fail("exact lookup missed after insert");
        }

        // Symmetry-equivalent relabeling: canonical hit — unless the game
        // bails out of canonicalisation, in which case a miss is the only
        // sound answer (never a wrong hit).
        const bool bails = !canonical_form(c.m).complete;
        const auto equiv = cache.lookup(c.relabeled);
        if (bails) {
          const bool identical = c.relabeled == c.m;
          if (equiv.has_value() != identical) {
            return CaseResult::fail("bailed game hit via canonical key");
          }
        } else if (!equiv.has_value() ||
                   equiv->quantum_bias != v.quantum_bias) {
          return CaseResult::fail("equivalent game missed");
        }

        // Counter conservation.
        const auto& s = cache.stats();
        if (s.lookups != s.hits_exact + s.hits_canonical + s.misses) {
          return CaseResult::fail("lookups != hits + misses");
        }
        if (s.insertions != 1) {
          return CaseResult::fail("insertions != 1");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(CanonicalCache, ConservationHoldsAcrossARandomWorkload) {
  Rng rng(2026);
  XorValueCache cache;
  std::uint64_t expected_lookups = 0;
  std::uint64_t expected_insertions = 0;
  for (int i = 0; i < 200; ++i) {
    const auto c = random_invariance_case(rng);
    const Matrix& m = rng.bernoulli(0.5) ? c.m : c.relabeled;
    ++expected_lookups;
    if (!cache.lookup(m).has_value()) {
      cache.insert(m, CachedXorValue{0.0, 0.0, false});
      ++expected_insertions;
    }
  }
  const auto& s = cache.stats();
  EXPECT_EQ(s.lookups, expected_lookups);
  EXPECT_EQ(s.insertions, expected_insertions);
  EXPECT_EQ(s.lookups, s.hits_exact + s.hits_canonical + s.misses);
  EXPECT_EQ(s.insertions, s.misses);
  EXPECT_GT(s.hits_exact + s.hits_canonical, 0u);
}

// End-to-end through the engine: solving a game once and then presenting a
// relabeled copy must return identical values without re-solving.
TEST(CanonicalCache, EngineServesEquivalentGamesFromCache) {
  ftl::games::XorValueOptions opts;
  opts.use_closed_form = false;  // force the cache + solver path
  opts.sdp.restarts = 3;
  ftl::games::XorValueEngine engine(opts);

  Rng rng(11);
  const auto game = ftl::games::random_xor_game(4, 4, rng);
  const Matrix m = game.cost_matrix();
  const auto first = engine.evaluate(m);
  EXPECT_FALSE(first.from_cache);

  const auto g = random_relabeling(4, 4, rng);
  const Matrix relabeled =
      relabel_cost_matrix(m, g.row_perm, g.col_perm, g.row_sign, g.col_sign);
  const auto second = engine.evaluate(relabeled);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.classical_bias, first.classical_bias);
  EXPECT_EQ(second.quantum_bias, first.quantum_bias);
  EXPECT_EQ(engine.stats().games_solved, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.cache_stats().hits_canonical, 1u);
}

}  // namespace
