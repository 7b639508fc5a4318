// Robustness & failure-injection tests across the stack: serialized-input
// fuzzing (mutated instances must load equal or throw — never crash or load
// garbage), contract enforcement at module boundaries, and concurrency
// stress for the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/stability.hpp"
#include "core/parallel_binding.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "prefs/matching_io.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "roommates/examples.hpp"
#include "roommates/io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

/// Applies `count` random single-character mutations to `text`.
std::string mutate(std::string text, Rng& rng, int count) {
  static constexpr char kAlphabet[] = "0123456789 \n:abcprefg-";
  for (int i = 0; i < count && !text.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(rng.below(text.size()));
    switch (rng.below(3)) {
      case 0:  // replace
        text[pos] = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        break;
      case 1:  // delete
        text.erase(pos, 1);
        break;
      default:  // insert
        text.insert(pos, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
    }
  }
  return text;
}

/// Mutates a uniform k-partite instance: whatever the mutations, both loader
/// entry points agree (the same instance, or both reject), and an accepted
/// instance is complete and round-trips.
void expect_mutations_load_valid_or_throw(Gender k, Index n, Rng& rng) {
  const auto inst = gen::uniform(k, n, rng);
  const auto text = io::to_string(inst);
  int threw = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const auto mutated = mutate(text, rng, 1 + static_cast<int>(rng.below(4)));
    // Both entry points must agree: the same instance, or both reject.
    std::istringstream is(mutated);
    std::optional<KPartiteInstance> streamed;
    try {
      streamed = io::load(is);
    } catch (const ContractViolation&) {
    }
    try {
      const auto loaded = io::from_string(mutated);
      // If it loads, it must be a fully valid instance that the stream path
      // also accepts, and whose re-saved form loads back equal.
      EXPECT_NO_THROW(loaded.validate());
      EXPECT_TRUE(loaded.is_complete()) << mutated;
      ASSERT_TRUE(streamed.has_value()) << mutated;
      EXPECT_TRUE(streamed->is_complete()) << mutated;
      EXPECT_EQ(*streamed, loaded);
      EXPECT_EQ(io::from_string(io::to_string(loaded)), loaded);
    } catch (const ContractViolation&) {
      EXPECT_FALSE(streamed.has_value()) << mutated;
      ++threw;
    }
  }
  EXPECT_GT(threw, trials / 2) << "mutations should usually be rejected";
}

TEST(Fuzz, MutatedKPartiteInstancesLoadValidOrThrow) {
  Rng rng(2000);
  expect_mutations_load_valid_or_throw(3, 4, rng);
  // n = 64 rows run to ~190 bytes, so mutations land inside the row scan's
  // full 64-byte blocks, not only in its padded tails.
  Rng block_rng(2002);
  expect_mutations_load_valid_or_throw(3, 64, block_rng);
}

TEST(Fuzz, MutatedRoommatesInstancesLoadValidOrThrow) {
  const auto inst = rm::examples::sec3b_left();
  const auto text = rm::io::to_string(inst);
  Rng rng(2001);
  for (int trial = 0; trial < 300; ++trial) {
    const auto mutated = mutate(text, rng, 1 + static_cast<int>(rng.below(4)));
    try {
      const auto loaded = rm::io::from_string(mutated);
      // Symmetry is re-validated by the constructor; the re-saved form must
      // load back to the same lists.
      EXPECT_GE(loaded.size(), 1);
      const auto reloaded = rm::io::from_string(rm::io::to_string(loaded));
      ASSERT_EQ(reloaded.size(), loaded.size());
      for (rm::Person p = 0; p < loaded.size(); ++p) {
        EXPECT_EQ(reloaded.list(p), loaded.list(p));
      }
    } catch (const ContractViolation&) {
      // expected for most mutations
    }
  }
}

// ---------------------------------------------------------------------------
// Loader conformance: an accept corpus that must load equal to a reference,
// and a reject corpus where every case must throw ParseError — through both
// entry points (in-place string_view and line-streamed istream).
// ---------------------------------------------------------------------------

/// Loads `text` through both entry points of a loader; both must agree.
template <typename FromString, typename FromStream>
auto load_both(const std::string& text, FromString from_string,
               FromStream from_stream) {
  auto from_view = from_string(text);
  std::istringstream is(text);
  EXPECT_EQ(from_stream(is), from_view) << text;
  return from_view;
}

template <typename FromString, typename FromStream>
void expect_rejected(const std::string& text, FromString from_string,
                     FromStream from_stream) {
  EXPECT_THROW(from_string(text), ParseError) << text;
  std::istringstream is(text);
  EXPECT_THROW(from_stream(is), ParseError) << text;
}

/// Accept-corpus variants of a well-formed text: comments, CRLF, tabs,
/// blank lines, leading and trailing blanks.
std::vector<std::string> lexical_variants(const std::string& text) {
  auto replace_all = [](std::string s, const std::string& from,
                        const std::string& to) {
    for (std::size_t pos = 0; (pos = s.find(from, pos)) != std::string::npos;
         pos += to.size()) {
      s.replace(pos, from.size(), to);
    }
    return s;
  };
  return {
      text,
      "# leading comment\n" + replace_all(text, "\n", " # trailing\n"),
      replace_all(text, "\n", "\r\n"),
      replace_all(text, " ", "\t"),
      replace_all(text, "\n", "\n\n \t\n"),
      "  " + replace_all(text, "\n", " \t \v\f\n  "),
      text.substr(0, text.size() - 1),  // no final newline
  };
}

const std::string kKpHead =
    "kstable-kpartite v1\n2 2\n"
    "pref 0 0 1 : 0 1\npref 0 1 1 : 1 0\npref 1 0 0 : 0 1\n";

TEST(Conformance, KPartiteAcceptCorpus) {
  const std::string text = kKpHead + "pref 1 1 0 : 1 0\n";
  const auto reference = io::from_string(text);
  EXPECT_EQ(io::to_string(reference), text);  // save() output loads back
  for (const auto& variant : lexical_variants(text)) {
    EXPECT_EQ(load_both(variant, io::from_string, io::load), reference)
        << variant;
  }
  // Lists in any order.
  const std::string reversed =
      "kstable-kpartite v1\n2 2\npref 1 1 0 : 1 0\npref 1 0 0 : 0 1\n"
      "pref 0 1 1 : 1 0\npref 0 0 1 : 0 1\n";
  EXPECT_EQ(load_both(reversed, io::from_string, io::load), reference);
}

TEST(Conformance, KPartiteRejectCorpus) {
  const std::vector<std::string> last_lines = {
      "pref 1 1 0 : 1 0 junk",   // trailing junk token
      "pref 1 1 0 : 1 0x",       // junk-suffixed entry
      "pref 1 1 0 : 1 0 -",      // lone sign
      "pref 1 1 0 : 1 +0",       // '+'-signed entry
      "pref 1 1 +0 : 1 0",       // '+'-signed target gender
      "pref 1 1 0 : 1 0x1",      // hex
      "pref 1 1 0 : 1 2147483648",  // int32 overflow
      "pref 1 1 0 :1 0",         // glued colon
      "pref 1 1 0 :0 1",         // glued colon (a permutation otherwise)
      "pref 1 1 0: 1 0",         // colon glued to the gender
      "pref 1 1 0 1 0",          // missing colon
      "prefs 1 1 0 : 1 0",       // bad tag
      "pref 1 1 0 : 1 2",        // out-of-range entry
      "pref 1 1 0 : 1 0 1",      // too many entries
      "pref 1 1 0 : 1",          // too few entries
      "pref 1 0 0 : 1 0",        // duplicate line (and (1,1) missing)
      "pref 1 2 0 : 1 0",        // member out of range
      "pref 1 1 1 : 1 0",        // target gender == own gender
      "pref 2 1 0 : 1 0",        // gender out of range
  };
  for (const auto& last : last_lines) {
    expect_rejected(kKpHead + last + "\n", io::from_string, io::load);
  }
  const std::string body = kKpHead.substr(kKpHead.find("pref")) +
                           "pref 1 1 0 : 1 0\n";
  for (const char* head :
       {"kstable-kpartite v2\n2 2\n", "kstable-kpartite\n2 2\n",
        "kstable-kpartite v1 extra\n2 2\n", "kstable-kary v1\n2 2\n",
        "kstable-kpartite v1\n2 2 2\n", "kstable-kpartite v1\n2\n",
        "kstable-kpartite v1\n+2 2\n", "kstable-kpartite v1\n2 2x\n",
        "kstable-kpartite v1\n1 2\n", "kstable-kpartite v1\n2 0\n"}) {
    expect_rejected(head + body, io::from_string, io::load);
  }
  expect_rejected(kKpHead, io::from_string, io::load);  // missing line
  expect_rejected("", io::from_string, io::load);
  expect_rejected("# nothing but a comment\n", io::from_string, io::load);
}

TEST(Conformance, KaryAcceptAndRejectCorpora) {
  const std::string head = "kstable-kary v1\n3 2\nfamily 0 : 0 0 0\n";
  const std::string text = head + "family 1 : 1 1 1\n";
  const auto reference = io::kary_from_string(text);
  EXPECT_EQ(io::to_string(reference), text);
  for (const auto& variant : lexical_variants(text)) {
    EXPECT_EQ(load_both(variant, io::kary_from_string, io::load_kary),
              reference)
        << variant;
  }
  EXPECT_EQ(load_both(
                "kstable-kary v1\n3 2\nfamily 1 : 1 1 1\nfamily 0 : 0 0 0\n",
                io::kary_from_string, io::load_kary),
            reference);
  for (const char* last :
       {"family 1 : 1 1 1 0", "family 1 : 1 1 1x", "family 1 : 1 1 1 junk",
        "family 1 : 1 1 +1", "family 1 : 1 1 2147483648", "family 1 :1 1 1",
        "family 1 1 1 1", "family 1 : 1 1", "family 1 : 1 1 2",
        "family 0 : 1 1 1", "family 2 : 1 1 1", "families 1 : 1 1 1"}) {
    expect_rejected(head + last + "\n", io::kary_from_string, io::load_kary);
  }
  const std::string body = text.substr(text.find("family"));
  for (const char* bad_head :
       {"kstable-kary v2\n3 2\n", "kstable-kary v1 x\n3 2\n",
        "kstable-kary v1\n3 2 1\n", "kstable-kary v1\n+3 2\n"}) {
    expect_rejected(bad_head + body, io::kary_from_string, io::load_kary);
  }
  expect_rejected(head, io::kary_from_string, io::load_kary);  // missing line
}

TEST(Conformance, BinaryAcceptAndRejectCorpora) {
  const std::string head = "kstable-binary v1\n2 2\npair 0 2\n";
  const std::string text = head + "pair 1 3\n";
  const auto reference = io::binary_from_string(text);
  EXPECT_EQ(io::to_string(reference), text);
  auto raw_of = [](const BinaryMatchingKP& m) { return m.raw(); };
  for (const auto& variant : lexical_variants(text)) {
    EXPECT_EQ(raw_of(io::binary_from_string(variant)), reference.raw())
        << variant;
    std::istringstream is(variant);
    EXPECT_EQ(raw_of(io::load_binary(is)), reference.raw()) << variant;
  }
  EXPECT_EQ(raw_of(io::binary_from_string(
                "kstable-binary v1\n2 2\npair 1 3\npair 0 2\n")),
            reference.raw());
  for (const char* last :
       {"pair 1 3 junk", "pair 1 3x", "pair 1 +3", "pair 1 -", "pair 1",
        "pair 1 2147483648", "pair 1 4", "pair 0 2", "pairs 1 3"}) {
    expect_rejected(head + last + "\n", io::binary_from_string,
                    io::load_binary);
  }
  const std::string body = text.substr(text.find("pair"));
  for (const char* bad_head :
       {"kstable-binary v2\n2 2\n", "kstable-binary v1 x\n2 2\n",
        "kstable-binary v1\n2 2 2\n", "kstable-binary v1\n2 +2\n"}) {
    expect_rejected(bad_head + body, io::binary_from_string, io::load_binary);
  }
}

TEST(Conformance, RoommatesAcceptAndRejectCorpora) {
  const std::string head = "kstable-roommates v1\n3\nlist 0 : 1 2\n"
                           "list 1 : 2 0\n";
  const std::string text = head + "list 2 : 0 1\n";
  const auto reference = rm::io::from_string(text);
  EXPECT_EQ(rm::io::to_string(reference), text);
  auto lists_of = [](const rm::RoommatesInstance& inst) {
    std::vector<std::vector<rm::Person>> lists;
    for (rm::Person p = 0; p < inst.size(); ++p) lists.push_back(inst.list(p));
    return lists;
  };
  for (const auto& variant : lexical_variants(text)) {
    EXPECT_EQ(lists_of(rm::io::from_string(variant)), lists_of(reference))
        << variant;
    std::istringstream is(variant);
    EXPECT_EQ(lists_of(rm::io::load(is)), lists_of(reference)) << variant;
  }
  EXPECT_EQ(lists_of(rm::io::from_string(
                "kstable-roommates v1\n3\nlist 2 : 0 1\nlist 0 : 1 2\n"
                "list 1 : 2 0\n")),
            lists_of(reference));
  for (const char* last :
       {"list 2 : 0 1 junk", "list 2 : 0 1x", "list 2 : 0 +1", "list 2 : 0 -",
        "list 2 : 0 2147483648", "list 2 :0 1", "list 2 0 1", "list 2 : 0 3",
        "list 1 : 0 1", "list 3 : 0 1", "lists 2 : 0 1"}) {
    expect_rejected(head + last + "\n", rm::io::from_string, rm::io::load);
  }
  const std::string body = text.substr(text.find("list"));
  for (const char* bad_head :
       {"kstable-roommates v2\n3\n", "kstable-roommates v1 x\n3\n",
        "kstable-roommates v1\n3 3\n", "kstable-roommates v1\n+3\n",
        "kstable-roommates v1\n0\n"}) {
    expect_rejected(bad_head + body, rm::io::from_string, rm::io::load);
  }
  expect_rejected(head, rm::io::from_string, rm::io::load);  // missing line
}

TEST(Contracts, BindingRejectsMismatchedInstanceAndStructure) {
  Rng rng(2002);
  const auto inst = gen::uniform(3, 2, rng);
  const BindingStructure wrong_k(4);
  EXPECT_THROW(core::bind_structure(inst, wrong_k), ContractViolation);
}

TEST(Contracts, StabilityCheckersRejectDimensionMismatches) {
  Rng rng(2003);
  const auto inst = gen::uniform(3, 2, rng);
  const KaryMatching matching(3, 2, {0, 0, 0, 1, 1, 1});
  EXPECT_THROW(
      analysis::tuple_blocks(inst, matching, {0, 0},
                             analysis::BlockingMode::strict),
      ContractViolation);
  // Matching from a different-sized instance.
  const auto big = gen::uniform(3, 3, rng);
  const KaryMatching big_matching(3, 3, {0, 0, 0, 1, 1, 1, 2, 2, 2});
  EXPECT_THROW(analysis::find_blocking_family(inst, big_matching),
               ContractViolation);
}

TEST(ThreadPool, StressManySmallTasks) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  constexpr int kTasks = 20000;
  pool.for_each_index(kTasks, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<std::int64_t>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPool, NestedSubmissionsDoNotDeadlock) {
  // Tasks submitting further tasks must not deadlock the pool (they only
  // enqueue; the barrier helper is not used re-entrantly).
  ThreadPool pool(2);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  std::vector<std::future<void>> futures;
  futures.reserve(8);
  std::vector<std::future<void>> inner_futures(8);
  std::mutex m;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&, i] {
      ++outer;
      std::scoped_lock lock(m);
      inner_futures[static_cast<std::size_t>(i)] =
          pool.submit([&inner] { ++inner; });
    }));
  }
  for (auto& f : futures) f.get();
  for (auto& f : inner_futures) f.get();
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8);
}

TEST(ThreadPool, ManyConcurrentBindingsShareOnePool) {
  Rng rng(2004);
  const auto inst = gen::uniform(4, 16, rng);
  ThreadPool pool(4);
  // Launch several CREW bindings back to back; all must agree.
  const auto reference =
      core::execute_binding(inst, trees::path(4),
                            core::ExecutionMode::crew_full, pool);
  for (int i = 0; i < 10; ++i) {
    const auto repeat = core::execute_binding(
        inst, trees::path(4), core::ExecutionMode::crew_full, pool);
    EXPECT_EQ(repeat.binding.matching(), reference.binding.matching());
  }
}

TEST(Fuzz, MutatedKaryMatchingsRoundTripOrThrow) {
  Rng rng(2006);
  const auto inst = gen::uniform(3, 4, rng);
  // A valid matching to serialize: identity families.
  const KaryMatching matching(3, 4, [] {
    std::vector<Index> fams;
    for (Index t = 0; t < 4; ++t) {
      for (Gender g = 0; g < 3; ++g) fams.push_back(t);
    }
    return fams;
  }());
  const auto text = io::to_string(matching);
  int threw = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    // Deeper mutations than the instance fuzz: up to 8 edits.
    const auto mutated = mutate(text, rng, 1 + static_cast<int>(rng.below(8)));
    try {
      const auto loaded = io::kary_from_string(mutated);
      // Constructor validated it; the serialized form must be a fixpoint.
      EXPECT_EQ(io::kary_from_string(io::to_string(loaded)), loaded);
    } catch (const ContractViolation&) {
      ++threw;  // includes ParseError
    }
  }
  EXPECT_GT(threw, trials / 2) << "mutations should usually be rejected";
}

TEST(Fuzz, MutatedBinaryMatchingsRoundTripOrThrow) {
  const BinaryMatchingKP matching(2, 2, {2, 3, 0, 1});
  const auto text = io::to_string(matching);
  Rng rng(2007);
  for (int trial = 0; trial < 400; ++trial) {
    const auto mutated = mutate(text, rng, 1 + static_cast<int>(rng.below(8)));
    try {
      const auto loaded = io::binary_from_string(mutated);
      const auto reloaded = io::binary_from_string(io::to_string(loaded));
      EXPECT_EQ(reloaded.raw(), loaded.raw());
    } catch (const ContractViolation&) {
      // expected for most mutations
    }
  }
}

TEST(Fuzz, ParseFailuresAreParseErrorsNotBareViolations) {
  // The taxonomy contract: malformed *input* surfaces as ParseError, so
  // callers can distinguish bad data from programming errors.
  EXPECT_THROW(io::from_string("garbage"), ParseError);
  EXPECT_THROW(rm::io::from_string("garbage"), ParseError);
  EXPECT_THROW(io::kary_from_string("garbage"), ParseError);
  EXPECT_THROW(io::binary_from_string("garbage"), ParseError);
}

TEST(ThreadPool, SubmitPropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 41 + 1; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("task blew"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task: later work still runs.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructionDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor joins after the queue drains; nothing is dropped.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ForEachIndexZeroIsANoOp) {
  ThreadPool pool(2);
  int calls = 0;
  pool.for_each_index(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, InjectedTaskFaultSurfacesInFuture) {
  ThreadPool pool(2);
  resilience::ScopedFault fault("thread_pool/task");
  auto f = pool.submit([] { return 1; });
  EXPECT_THROW(f.get(), InjectedFault);
  EXPECT_EQ(fault.fires(), 1);
  // max_fires=1 reached: the next task runs clean.
  EXPECT_EQ(pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPool, InjectedForEachFaultRethrowsWithoutHanging) {
  ThreadPool pool(4);
  resilience::ScopedFault fault("thread_pool/for_each_index");
  std::atomic<int> ran{0};
  // The injected fault must propagate to the caller AFTER the completion
  // barrier releases — a hang here is the bug this test guards against.
  EXPECT_THROW(pool.for_each_index(
                   64,
                   [&ran](std::size_t) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                   }),
               InjectedFault);
  EXPECT_EQ(ran.load(), 63);  // exactly one task was replaced by the fault
  EXPECT_EQ(fault.fires(), 1);
}

TEST(Rng, StreamsSurviveHeavyForking) {
  Rng root(2005);
  // 64 forked generators must all be distinct streams.
  std::vector<std::uint64_t> first_draws;
  for (int i = 0; i < 64; ++i) {
    Rng child = root.fork();
    first_draws.push_back(child());
  }
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::unique(first_draws.begin(), first_draws.end()) -
                first_draws.begin(),
            64);
}

}  // namespace
}  // namespace kstable
