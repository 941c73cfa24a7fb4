#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "test_dirs.hpp"

namespace du = dramstress::util;
namespace units = dramstress::units;

TEST(Units, ThermalVoltageAtRoomTemperature) {
  // kT/q at 300.15 K is about 25.9 mV.
  EXPECT_NEAR(units::thermal_voltage(300.15), 25.9e-3, 0.2e-3);
}

TEST(Units, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(units::celsius_to_kelvin(27.0), 300.15);
  EXPECT_DOUBLE_EQ(units::kelvin_to_celsius(units::celsius_to_kelvin(-33.0)), -33.0);
}

TEST(Units, SuffixValues) {
  EXPECT_DOUBLE_EQ(60.0 * units::ns, 60e-9);
  EXPECT_DOUBLE_EQ(200.0 * units::kOhm, 2e5);
  EXPECT_DOUBLE_EQ(30.0 * units::fF, 30e-15);
}

TEST(Strings, FormatBasics) {
  EXPECT_EQ(du::format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(du::format("%.2f", 1.234), "1.23");
}

TEST(Strings, EngineeringNotation) {
  EXPECT_EQ(du::eng(200e3, "Ohm"), "200 kOhm");
  EXPECT_EQ(du::eng(2.4, "V"), "2.40 V");
  EXPECT_EQ(du::eng(30e-15, "F"), "30.0 fF");
  EXPECT_EQ(du::eng(0.0, "V"), "0 V");
  EXPECT_EQ(du::eng(1e6, "Ohm"), "1.00 MOhm");
}

TEST(Strings, EngineeringNegative) {
  EXPECT_EQ(du::eng(-1.5e-9, "A"), "-1.50 nA");
}

TEST(Strings, JoinAndPad) {
  EXPECT_EQ(du::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(du::join({}, ","), "");
  EXPECT_EQ(du::pad_right("ab", 4), "ab  ");
  EXPECT_EQ(du::pad_left("ab", 4), "  ab");
  EXPECT_EQ(du::pad_left("abcde", 4), "abcde");
}

TEST(Csv, RoundTripText) {
  du::CsvTable t({"x", "y"});
  t.add_row({1.0, 2.5});
  t.add_row({2.0, -3.0});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "x,y\n1,2.5\n2,-3\n");
}

TEST(Csv, RowSizeMismatchThrows) {
  du::CsvTable t({"x", "y"});
  EXPECT_THROW(t.add_row({1.0}), dramstress::ModelError);
}

TEST(Csv, WritesFile) {
  du::CsvTable t({"a"});
  t.add_row({7.0});
  const std::string path = dramstress::test::fresh_dir("csv") + "/ds_csv_test.csv";
  t.write_file(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a\n7\n");
  std::remove(path.c_str());
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  du::Series s;
  s.name = "curve";
  s.glyph = '*';
  s.x = {0.0, 1.0, 2.0};
  s.y = {0.0, 1.0, 0.0};
  du::PlotOptions opt;
  opt.title = "test plot";
  const std::string out = du::ascii_plot({s}, opt);
  EXPECT_NE(out.find("test plot"), std::string::npos);
  EXPECT_NE(out.find("* = curve"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesIsHandled) {
  du::PlotOptions opt;
  opt.title = "empty";
  const std::string out = du::ascii_plot({}, opt);
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(AsciiPlot, LogXAxis) {
  du::Series s;
  s.name = "r-sweep";
  s.x = {1e3, 1e4, 1e5, 1e6};
  s.y = {1.0, 2.0, 3.0, 4.0};
  du::PlotOptions opt;
  opt.log_x = true;
  opt.x_label = "R";
  const std::string out = du::ascii_plot({s}, opt);
  EXPECT_NE(out.find("(log)"), std::string::npos);
}

TEST(Error, RequireThrowsModelError) {
  EXPECT_NO_THROW(dramstress::require(true, "ok"));
  EXPECT_THROW(dramstress::require(false, "bad"), dramstress::ModelError);
}

TEST(Log, LevelFilteringAndRestore) {
  using dramstress::util::LogLevel;
  const LogLevel before = dramstress::util::log_level();
  dramstress::util::set_log_level(LogLevel::Error);
  EXPECT_EQ(dramstress::util::log_level(), LogLevel::Error);
  // These must be no-ops (and must not crash) below the level.
  dramstress::util::log_debug("hidden");
  dramstress::util::log_info("hidden");
  dramstress::util::log_warn("hidden");
  dramstress::util::set_log_level(LogLevel::Off);
  dramstress::util::log_error("also hidden");
  dramstress::util::set_log_level(before);
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, ThreadCountResolution) {
  EXPECT_GE(du::hardware_threads(), 1);
  const int before = du::default_threads();
  du::set_default_threads(3);
  EXPECT_EQ(du::default_threads(), 3);
  EXPECT_EQ(du::resolve_threads(0), 3);
  EXPECT_EQ(du::resolve_threads(7), 7);
  du::set_default_threads(0);  // restore automatic resolution
  EXPECT_EQ(du::default_threads(), before);
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 9}) {
    const size_t n = 1000;
    std::vector<int> hits(n, 0);
    du::parallel_for(
        n, [&](size_t i) { ++hits[i]; }, {.threads = threads});
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "i=" << i;
  }
}

TEST(Parallel, WorkerStateIsPerThreadAndResultsDeterministic) {
  const size_t n = 64;
  std::vector<double> out_1(n, 0.0);
  std::vector<double> out_4(n, 0.0);
  auto body = [](std::vector<double>& out) {
    return [&out](int& scratch, size_t i) {
      scratch += static_cast<int>(i);  // worker-local, never shared
      out[i] = static_cast<double>(i) * 1.5;
    };
  };
  du::parallel_for_state(n, [] { return 0; }, body(out_1), {.threads = 1});
  du::parallel_for_state(n, [] { return 0; }, body(out_4), {.threads = 4});
  EXPECT_EQ(out_1, out_4);
}

TEST(Parallel, PropagatesBodyException) {
  EXPECT_THROW(
      du::parallel_for(
          100,
          [](size_t i) {
            if (i == 37) throw dramstress::ModelError("boom");
          },
          {.threads = 4}),
      dramstress::ModelError);
}

TEST(Parallel, RespectsMinChunkAndZeroN) {
  du::parallel_for(0, [](size_t) { FAIL() << "body on empty range"; });
  std::vector<int> hits(10, 0);
  du::parallel_for(
      hits.size(), [&](size_t i) { ++hits[i]; },
      {.threads = 4, .min_chunk = 64});
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Json, WriterProducesStableDocument) {
  du::json::Writer w;
  w.begin_object();
  w.key("name").value("dram");
  w.key("n").value(42);
  w.key("pi").value(3.25);
  w.key("flag").value(true);
  w.key("nothing").null();
  w.key("list").begin_array().value(1).value("two").end_array();
  w.end_object();
  const du::json::Value v = du::json::parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->string, "dram");
  EXPECT_DOUBLE_EQ(v.find("n")->number, 42.0);
  EXPECT_DOUBLE_EQ(v.find("pi")->number, 3.25);
  EXPECT_TRUE(v.find("flag")->boolean);
  EXPECT_TRUE(v.find("nothing")->is_null());
  ASSERT_EQ(v.find("list")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(v.find("list")->array[0].number, 1.0);
  EXPECT_EQ(v.find("list")->array[1].string, "two");
}

TEST(Json, DoublesRoundTripExactly) {
  for (double d : {1e-15, 5e-4, 0.1, 1.0 / 3.0, 6.02214076e23}) {
    du::json::Writer w;
    w.value(d);
    EXPECT_DOUBLE_EQ(du::json::parse(w.str()).number, d);
  }
}

TEST(Json, NonFiniteBecomesNull) {
  du::json::Writer w;
  w.value(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(du::json::parse(w.str()).is_null());
}

TEST(Json, EscapeHandlesControlAndQuotes) {
  EXPECT_EQ(du::json::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  const du::json::Value v = du::json::parse("\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(v.string, "a\"b\\c\n\t");
}

TEST(Json, ParserDecodesUnicodeEscapes) {
  // U+00B5 MICRO SIGN -> two-byte UTF-8.
  const du::json::Value v = du::json::parse("\"\\u00b5s\"");
  EXPECT_EQ(v.string, "\xc2\xb5s");
}

TEST(Json, WriterRejectsStructuralMisuse) {
  {
    du::json::Writer w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), dramstress::ModelError);  // key outside object
  }
  {
    du::json::Writer w;
    w.begin_object();
    EXPECT_THROW(w.str(), dramstress::ModelError);  // unbalanced document
  }
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(du::json::parse(""), dramstress::ModelError);
  EXPECT_THROW(du::json::parse("{\"a\": 1,}"), dramstress::ModelError);
  EXPECT_THROW(du::json::parse("[1, 2] trailing"), dramstress::ModelError);
  EXPECT_THROW(du::json::parse("{'a': 1}"), dramstress::ModelError);
}

TEST(Json, ParserRejectsDuplicateKeys) {
  EXPECT_THROW(du::json::parse("{\"a\": 1, \"a\": 2}"), dramstress::ModelError);
}

TEST(Json, FindOnNonObjectReturnsNull) {
  const du::json::Value v = du::json::parse("[1]");
  EXPECT_EQ(v.find("a"), nullptr);
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.array[0].find("b"), nullptr);
}

// A representative document exercising every JSON construct; the
// robustness corpora below are derived from it.
const char kJsonCorpusDoc[] =
    "{\n"
    "  \"name\": \"campaign\",\n"
    "  \"defects\": [\"o3\", \"sg/comp\"],\n"
    "  \"points\": [{\"vdd\": 2.4, \"tcyc\": 6e-08, \"ok\": true}],\n"
    "  \"empty\": [],\n"
    "  \"nil\": null,\n"
    "  \"esc\": \"a\\\"b\\\\c\\u00b5\",\n"
    "  \"neg\": -1.5e-3\n"
    "}\n";

TEST(Json, ParseErrorCarriesOffsetAndLine) {
  // The bad token starts at the 'x'; the diagnostic pipeline relies on
  // offset() to attribute the failure to the right spec line.
  const std::string text = "{\n  \"a\": 1,\n  \"b\": x\n}";
  try {
    du::json::parse(text);
    FAIL() << "expected ParseError";
  } catch (const du::json::ParseError& e) {
    EXPECT_EQ(text[e.offset()], 'x');
    EXPECT_EQ(du::json::line_of(text, e.offset()), 3);
  }
}

TEST(Json, LineOfHandlesBoundaries) {
  const std::string text = "ab\ncd\nef";
  EXPECT_EQ(du::json::line_of(text, 0), 1);
  EXPECT_EQ(du::json::line_of(text, 3), 2);   // first char after the \n
  EXPECT_EQ(du::json::line_of(text, 7), 3);
  EXPECT_EQ(du::json::line_of(text, 1000), 3);  // clamped past the end
  EXPECT_EQ(du::json::line_of("", 0), 1);
}

TEST(Json, TruncationCorpusNeverCrashes) {
  // Every proper prefix of a valid document must fail as a ModelError
  // (never crash, never silently succeed) -- the campaign journal replay
  // feeds torn lines straight into the parser.
  const std::string doc = kJsonCorpusDoc;
  ASSERT_NO_THROW(du::json::parse(doc));
  for (size_t len = 0; len < doc.size() - 1; ++len)
    EXPECT_THROW(du::json::parse(doc.substr(0, len)), dramstress::ModelError)
        << "prefix length " << len;
}

TEST(Json, MutationCorpusNeverCrashes) {
  // Deterministic single-byte mutations: every outcome must be either a
  // clean parse or a ModelError carrying a valid offset.
  const std::string doc = kJsonCorpusDoc;
  const char replacements[] = {'\0', '"', '{', '}', '[', ']', ',', ':',
                               'x',  '9', '-', '\\', '\n', '\x80'};
  uint32_t rng = 0x2545f491u;  // fixed seed: reproducible corpus
  for (int i = 0; i < 500; ++i) {
    rng = rng * 1664525u + 1013904223u;
    std::string mutated = doc;
    const size_t pos = (rng >> 8) % mutated.size();
    mutated[pos] = replacements[(rng >> 24) % sizeof(replacements)];
    try {
      du::json::parse(mutated);
    } catch (const du::json::ParseError& e) {
      EXPECT_LE(e.offset(), mutated.size());
    }
  }
}

TEST(Json, AppendRoundTripIsByteStable) {
  // parse + append must reproduce the Writer's own output byte-for-byte
  // (the campaign report embeds cached payloads this way, and resume
  // compares reports with a plain binary diff).
  du::json::Writer first;
  first.begin_object();
  first.key("br").value(248045.44142297964);
  first.key("fails").value(false);
  first.key("list").begin_array().value(1e-9).null().value("x").end_array();
  first.key("nested").begin_object().key("k").value(-3L).end_object();
  first.end_object();

  const du::json::Value v = du::json::parse(first.str());
  du::json::Writer second;
  du::json::append(second, v);
  EXPECT_EQ(second.str(), first.str());

  // And a second generation parses to the same bytes again.
  du::json::Writer third;
  du::json::append(third, du::json::parse(second.str()));
  EXPECT_EQ(third.str(), second.str());
}
