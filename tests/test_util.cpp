// Tests for string helpers, the table printer, and parallel_for.

#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/net.hpp"
#include "util/parallel_for.hpp"
#include "util/posix_io.hpp"
#include "util/spec.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace oracle {
namespace {

// --------------------------------------------------------------------------
// string_util
// --------------------------------------------------------------------------

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a:b:c", ':'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a::b", ':'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ':'), (std::vector<std::string>{""}));
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x "), "x");
  EXPECT_EQ(trim("\t\n a b \r"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, IEquals) {
  EXPECT_TRUE(iequals("CWN", "cwn"));
  EXPECT_FALSE(iequals("cwn", "gm"));
  EXPECT_FALSE(iequals("ab", "abc"));
}

TEST(StringUtil, ToLower) { EXPECT_EQ(to_lower("GriD:5X5"), "grid:5x5"); }

TEST(StringUtil, ParseIntValid) {
  EXPECT_EQ(parse_int("42", "t"), 42);
  EXPECT_EQ(parse_int(" -7 ", "t"), -7);
}

TEST(StringUtil, ParseIntInvalidThrows) {
  EXPECT_THROW(parse_int("", "t"), ConfigError);
  EXPECT_THROW(parse_int("12x", "t"), ConfigError);
  EXPECT_THROW(parse_int("abc", "t"), ConfigError);
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "t"), 2.5);
  EXPECT_THROW(parse_double("2.5.6", "t"), ConfigError);
}

TEST(StringUtil, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(strfmt("%.2f", 1.239), "1.24");
}

TEST(StringUtil, Fixed) { EXPECT_EQ(fixed(3.14159, 3), "3.142"); }

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("dlm:5:10x10", "dlm"));
  EXPECT_FALSE(starts_with("grid", "dlm"));
  EXPECT_FALSE(starts_with("d", "dlm"));
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// --------------------------------------------------------------------------
// Spec grammar
// --------------------------------------------------------------------------

TEST(SpecList, SplitsJoinedMultiKeySpecsBack) {
  const std::vector<std::vector<std::string>> lists = {
      {"cwn:radius=5,horizon=1", "gm:hwm=2,lwm=1,interval=30", "random"},
      {"cwn:radius=3,horizon=2,interval=20000"},
      {"synthetic:seed=1,leafbias=0.5", "burst:phases=2,width=3", "fib:9"},
      {"fib:9;leaf=2,split=1,combine=3", "dc:1:21;leaf=5", "fib:7"},
      {"grid:4x4", "dlm:5:10x10", "hypercube:4"},
  };
  for (const auto& specs : lists)
    EXPECT_EQ(util::split_spec_list(join(specs, ",")), specs);
}

TEST(SpecList, TrimsAndDropsEmptyItems) {
  EXPECT_EQ(util::split_spec_list(" cwn:radius=4 , gm ,, horizon=1"),
            (std::vector<std::string>{"cwn:radius=4", "gm,horizon=1"}));
  EXPECT_TRUE(util::split_spec_list(" , ").empty());
  // A leading key=value has no spec to join and stays an item (which the
  // factory then rejects as an unknown kind).
  EXPECT_EQ(util::split_spec_list("radius=4,cwn"),
            (std::vector<std::string>{"radius=4", "cwn"}));
}

struct ToySpec {
  std::uint32_t count = 3;
  double ratio = 0.25;
  bool flag = true;
};
constexpr util::SpecKey<ToySpec> kToyKeys[] = {
    {.key = "count", .field = &ToySpec::count, .max = 10, .label = "n"},
    {.key = "ratio", .field = &ToySpec::ratio, .min = 0, .max = 1},
    {.key = "flag", .field = &ToySpec::flag},
};
constexpr util::Spec<ToySpec> kToySpec{"toy", kToyKeys};

TEST(Spec, ParsesIntoTheFieldsAndRendersChangesOnly) {
  const ToySpec p = kToySpec.parse(" Count = 7 ,RATIO=0.1");
  EXPECT_EQ(p.count, 7u);
  EXPECT_DOUBLE_EQ(p.ratio, 0.1);
  EXPECT_TRUE(p.flag);
  EXPECT_EQ(kToySpec.name(p), "toy(n=7,ratio=0.1)");
  EXPECT_EQ(kToySpec.name(ToySpec{}), "toy(n=3)");
  EXPECT_EQ(kToySpec.extras(ToySpec{}), "");
  EXPECT_EQ(kToySpec.extras(kToySpec.parse("flag=FALSE")), "(flag=0)");
  // Doubles render in the shortest form that reads back exactly.
  EXPECT_EQ(kToySpec.extras(kToySpec.parse("ratio=0.30000000000000004")),
            "(ratio=0.30000000000000004)");
}

TEST(Spec, ErrorsNameTheKindAndListItsKeys) {
  for (const char* body : {"cnt=1", "count=1,count=2", "count=11", "count=-1",
                           "count=1.5", "ratio=2", "flag=2", "count"}) {
    try {
      kToySpec.parse(body);
      ADD_FAILURE() << body << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("toy: ", 0), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find("(keys: count, ratio, flag)"),
                std::string::npos)
          << e.what();
    }
  }
}

// --------------------------------------------------------------------------
// TextTable
// --------------------------------------------------------------------------

TEST(TextTable, AlignsAndPads) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer", "10"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Numeric column right-aligned: "1.5" ends at the same column as "10".
  EXPECT_NE(s.find("   1.5"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, RuleInsertsSeparator) {
  TextTable t({"col"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // Header rule + inserted rule = at least two dashed lines.
  std::size_t dashes = 0, pos = 0;
  while ((pos = s.find("---", pos)) != std::string::npos) {
    ++dashes;
    const std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl;
  }
  EXPECT_GE(dashes, 2u);
}

// --------------------------------------------------------------------------
// parallel_for
// --------------------------------------------------------------------------

/// This process's thread count, from /proc/self/status.
std::size_t live_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

TEST(ParallelFor, CoversAllIndices) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), 8, [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroItems) {
  parallel_for(0, 4, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelFor, PropagatesExceptionAfterRunningEveryOtherIndex) {
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<int> hits(100, 0);
    EXPECT_THROW(parallel_for(hits.size(), threads,
                              [&](std::size_t i) {
                                if (i == 5) throw std::runtime_error("boom");
                                hits[i] = 1;
                              }),
                 std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], i == 5 ? 0 : 1)
          << "index " << i << ", " << threads << " thread(s)";
  }
}

TEST(ParallelFor, StartsNoMoreThreadsThanItems) {
  const std::size_t before = live_threads();
  ASSERT_GT(before, 0u);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::size_t most = 0;
  parallel_for(3, 8, [&](std::size_t) {
    const std::size_t now = live_threads();
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
    most = std::max(most, now);
  });
  EXPECT_LE(ids.size(), 3u);
  EXPECT_LE(most, before + 3);
}

// --------------------------------------------------------------------------
// net: frame encoding + incremental splitting
// --------------------------------------------------------------------------

TEST(FrameSplitter, ReassemblesFramesFromArbitraryChunks) {
  const std::string a = util::frame_bytes("hello");
  const std::string b = util::frame_bytes(std::string(1000, 'x'));
  const std::string c = util::frame_bytes("");  // empty payload is legal
  const std::string wire = a + b + c;

  // Feed byte-by-byte: worst-case fragmentation must still yield the
  // exact payloads in order.
  util::FrameSplitter split;
  std::vector<std::string> got;
  for (const char ch : wire) {
    split.feed(&ch, 1);
    while (auto frame = split.next()) got.push_back(*frame);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(got[1], std::string(1000, 'x'));
  EXPECT_EQ(got[2], "");
  EXPECT_FALSE(split.corrupt());
  EXPECT_FALSE(split.partial());

  // A partial header/payload reports partial() until completed.
  split.feed(wire.data(), 2);
  EXPECT_TRUE(split.partial());
  EXPECT_FALSE(split.next().has_value());
  split.feed(wire.data() + 2, a.size() - 2);
  const auto frame = split.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "hello");
}

TEST(FrameSplitter, OversizedLengthPrefixLatchesCorrupt) {
  util::FrameSplitter split(16);
  const std::string big = util::frame_bytes(std::string(64, 'y'));
  ASSERT_FALSE(big.empty());  // within the default cap used to build it
  split.feed(big);
  EXPECT_FALSE(split.next().has_value());
  EXPECT_TRUE(split.corrupt());
  // Once corrupt, nothing good comes out ever again.
  split.feed(util::frame_bytes("ok"));
  EXPECT_FALSE(split.next().has_value());
}

TEST(FrameBytes, RefusesPayloadsOverTheCap) {
  EXPECT_TRUE(util::frame_bytes(std::string(17, 'z'), 16).empty());
  const auto wire = util::frame_bytes("abc", 16);
  ASSERT_EQ(wire.size(), 4u + 3u);
  EXPECT_EQ(wire.substr(4), "abc");
}

TEST(WakePipe, NotifyIsVisibleToPollAndDrainClears) {
  util::WakePipe wake;
  ASSERT_TRUE(wake.valid());
  struct pollfd p = {wake.poll_fd(), POLLIN, 0};
  EXPECT_EQ(util::poll_retry(&p, 1, 0), 0);  // idle: nothing readable
  wake.notify();
  wake.notify();  // coalesces, never blocks
  p.revents = 0;
  ASSERT_EQ(util::poll_retry(&p, 1, 1000), 1);
  EXPECT_TRUE(p.revents & POLLIN);
  wake.drain();
  p.revents = 0;
  EXPECT_EQ(util::poll_retry(&p, 1, 0), 0);  // drained: quiet again
}

}  // namespace
}  // namespace oracle
