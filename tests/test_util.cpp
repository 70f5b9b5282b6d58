// Unit tests: util (rng, units, table, json writer and reader, args).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsp/iq.hpp"
#include "dsp/welch.hpp"
#include "scenario/adversary.hpp"
#include "sdr/fault.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace u = speccal::util;
using tj = speccal::util::JsonReader;

// ---------------------------------------------------------------- units ----

TEST(Units, DbRatioRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 27.5}) {
    EXPECT_NEAR(u::ratio_to_db(u::db_to_ratio(db)), db, 1e-12);
  }
}

TEST(Units, DbmWattsKnownValues) {
  EXPECT_NEAR(u::watts_to_dbm(1.0), 30.0, 1e-12);
  EXPECT_NEAR(u::watts_to_dbm(0.001), 0.0, 1e-12);
  EXPECT_NEAR(u::dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(u::dbm_to_watts(-30.0), 1e-6, 1e-18);
}

TEST(Units, AmplitudeDb) {
  EXPECT_NEAR(u::amplitude_to_db(10.0), 20.0, 1e-12);
  EXPECT_NEAR(u::db_to_amplitude(6.0206), 2.0, 1e-3);
}

TEST(Units, ThermalNoiseMinus174PerHz) {
  EXPECT_NEAR(u::thermal_noise_dbm(1.0), -173.975, 0.01);
  EXPECT_NEAR(u::thermal_noise_dbm(1e6), -113.975, 0.01);
}

TEST(Units, PowerSumDb) {
  // Two equal powers add 3 dB.
  EXPECT_NEAR(u::power_sum_db(-90.0, -90.0), -86.99, 0.01);
  // A much weaker signal changes nothing measurable.
  EXPECT_NEAR(u::power_sum_db(-50.0, -120.0), -50.0, 1e-4);
}

TEST(Units, WrapDegrees) {
  EXPECT_DOUBLE_EQ(u::wrap_degrees(0.0), 0.0);
  EXPECT_DOUBLE_EQ(u::wrap_degrees(360.0), 0.0);
  EXPECT_DOUBLE_EQ(u::wrap_degrees(-90.0), 270.0);
  EXPECT_DOUBLE_EQ(u::wrap_degrees(725.0), 5.0);
}

TEST(Units, AngularDistance) {
  EXPECT_DOUBLE_EQ(u::angular_distance_deg(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(u::angular_distance_deg(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(u::angular_distance_deg(90.0, 90.0), 0.0);
  EXPECT_DOUBLE_EQ(u::angular_distance_deg(-10.0, 10.0), 20.0);
}

TEST(Units, WavelengthAt1090MHz) {
  EXPECT_NEAR(u::wavelength_m(1090e6), 0.275, 0.001);
}

TEST(Units, FrequencyLiterals) {
  using namespace u::literals;
  EXPECT_DOUBLE_EQ(1_GHz, 1e9);
  EXPECT_DOUBLE_EQ(731_MHz, 731e6);
  EXPECT_DOUBLE_EQ(1.5_MHz, 1.5e6);
  EXPECT_DOUBLE_EQ(100_km, 100e3);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicFromSeed) {
  u::Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool any_diff = false;
  u::Rng a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.next() != c.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  u::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  u::Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  u::Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sq / kN, 1.0, 0.02);
}

TEST(Rng, PoissonMean) {
  u::Rng rng(13);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) acc += rng.poisson(mean);
    EXPECT_NEAR(acc / kN, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

TEST(Rng, ExponentialMean) {
  u::Rng rng(17);
  double acc = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / kN, 0.5, 0.02);
}

TEST(Rng, ChanceEdges) {
  u::Rng rng(19);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ForkIndependentAndStable) {
  u::Rng parent(21);
  u::Rng childA = parent.fork(1);
  u::Rng childA2 = parent.fork(1);
  u::Rng childB = parent.fork(2);
  EXPECT_EQ(childA.next(), childA2.next());       // same stream id -> same stream
  EXPECT_NE(childA.next(), childB.next());        // different ids diverge
  // Forking does not advance the parent.
  u::Rng parent2(21);
  (void)parent2.fork(1);
  u::Rng parent3(21);
  EXPECT_EQ(parent2.next(), parent3.next());
}

TEST(Rng, WorksWithStdShuffleConcept) {
  static_assert(std::uniform_random_bit_generator<u::Rng>);
}

// ------------------------------------------ bulk float normals (ziggurat) ----

namespace {

std::vector<float> fill_normals(std::uint64_t seed, std::size_t n, float sigma = 1.0f) {
  u::Rng rng(seed);
  std::vector<float> out(n);
  rng.fill_normal(out, sigma);
  return out;
}

}  // namespace

TEST(RngFillNormal, MomentsAndTailMass) {
  constexpr std::size_t kN = 4u << 20;
  const auto z = fill_normals(41, kN);
  double sum = 0.0;
  for (const float v : z) sum += v;
  const double mean = sum / kN;
  double m2 = 0.0, m4 = 0.0, largest = 0.0;
  std::size_t beyond4 = 0;
  for (const float v : z) {
    const double c = v - mean, c2 = c * c;
    m2 += c2;
    m4 += c2 * c2;
    beyond4 += std::fabs(v) > 4.0f;
    largest = std::max(largest, std::fabs(static_cast<double>(v)));
  }
  const double var = m2 / kN;
  const double kurtosis = m4 / kN / (var * var);
  EXPECT_LT(std::fabs(mean), 0.003);
  EXPECT_LT(std::fabs(var - 1.0), 0.003);
  EXPECT_LT(std::fabs(kurtosis - 3.0), 0.02);
  // P(|Z| > 4) = 6.33e-5; the count lies within 5 binomial sigma of it.
  const double p4 = std::erfc(4.0 / std::sqrt(2.0));
  const double expected = p4 * kN;
  EXPECT_LT(std::fabs(static_cast<double>(beyond4) - expected),
            5.0 * std::sqrt(expected * (1.0 - p4)))
      << beyond4 << " draws beyond 4 sigma, expected " << expected;
  // The tail past the base layer's r = 3.44 is sampled, not truncated.
  EXPECT_GT(largest, 4.5);
}

TEST(RngFillNormal, KolmogorovSmirnovAgainstStandardNormal) {
  auto z = fill_normals(43, 1u << 20);
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-static_cast<double>(z[i]) / std::sqrt(2.0));
    d = std::max({d, cdf - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - cdf});
  }
  EXPECT_LT(d, 1.628 / std::sqrt(n)) << "above the 1% critical value";
}

TEST(RngFillNormal, TwoNormalsOfOneDrawAreUncorrelated) {
  // Each next() feeds an I/Q pair: the real and imaginary parts of a noise
  // sample must not share structure.
  const auto z = fill_normals(47, 4u << 20);
  double ab = 0.0, aa = 0.0, bb = 0.0;
  for (std::size_t i = 0; i + 1 < z.size(); i += 2) {
    ab += static_cast<double>(z[i]) * z[i + 1];
    aa += static_cast<double>(z[i]) * z[i];
    bb += static_cast<double>(z[i + 1]) * z[i + 1];
  }
  EXPECT_LT(std::fabs(ab / std::sqrt(aa * bb)), 0.005);
}

TEST(RngFillNormal, ComplexNoiseHasAFlatSpectrum) {
  constexpr std::size_t kSamples = 4u << 20;
  std::vector<std::complex<float>> iq(kSamples);
  u::Rng rng(53);
  rng.fill_normal(speccal::dsp::as_floats(iq), 1.0f);
  const auto res = speccal::dsp::WelchEstimator{}.estimate(iq, 1.0);
  ASSERT_EQ(res.psd.size(), 1024u);
  double mean = 0.0;
  for (const double p : res.psd) mean += p;
  mean /= static_cast<double>(res.psd.size());
  for (std::size_t k = 0; k < res.psd.size(); ++k)
    ASSERT_LT(std::fabs(10.0 * std::log10(res.psd[k] / mean)), 0.3) << "bin " << k;
}

TEST(RngFillNormal, DeterministicAndSplitInvariant) {
  const auto whole = fill_normals(59, 1001, 0.5f);
  EXPECT_EQ(fill_normals(59, 1001, 0.5f), whole);
  // Fills split at even offsets consume the stream exactly like one fill;
  // the odd tail of the last piece matches too.
  u::Rng rng(59);
  std::vector<float> pieces(whole.size());
  const std::span<float> all(pieces);
  rng.fill_normal(all.subspan(0, 2), 0.5f);
  rng.fill_normal(all.subspan(2, 500), 0.5f);
  rng.fill_normal(all.subspan(502), 0.5f);
  EXPECT_EQ(pieces, whole);
  // Sigma scales the same draws, and add_normal adds them.
  const auto unit = fill_normals(59, 1001);
  for (std::size_t i = 0; i < unit.size(); ++i) ASSERT_EQ(whole[i], 0.5f * unit[i]);
  std::vector<float> added(whole.size(), 2.0f);
  u::Rng(59).add_normal(added, 0.5f);
  for (std::size_t i = 0; i < added.size(); ++i) ASSERT_EQ(added[i], 2.0f + whole[i]);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsAndCounts) {
  u::Table t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
}

TEST(Table, RejectsBadShapes) {
  EXPECT_THROW(u::Table({}), std::invalid_argument);
  u::Table t({"x"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, CsvQuoting) {
  u::Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,value\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Table, FormatFixed) {
  EXPECT_EQ(u::format_fixed(-93.456, 1), "-93.5");
  EXPECT_EQ(u::format_fixed(std::nan(""), 1), "-");
  EXPECT_EQ(u::format_fixed(std::nan(""), 1, "n/a"), "n/a");
}

TEST(Table, AsciiBar) {
  EXPECT_EQ(u::ascii_bar(10.0, 0.0, 10.0, 4), "####");
  EXPECT_EQ(u::ascii_bar(0.0, 0.0, 10.0, 4), "");
  EXPECT_EQ(u::ascii_bar(5.0, 0.0, 10.0, 4), "##");
  EXPECT_EQ(u::ascii_bar(99.0, 0.0, 10.0, 4), "####");  // clamped
}

// ----------------------------------------------------------------- json ----

TEST(Json, ObjectWithMixedValues) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_object();
  w.key("s");
  w.value("text");
  w.key("n");
  w.value(-12.5);
  w.key("i");
  w.value(42);
  w.key("b");
  w.value(true);
  w.key("z");
  w.null();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), R"({"s":"text","n":-12.5,"i":42,"b":true,"z":null})");
}

TEST(Json, NestedArrays) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_array();
  w.value(1);
  w.begin_array();
  w.value(2);
  w.end_array();
  w.value(3);
  w.end_array();
  EXPECT_EQ(os.str(), "[1,[2],3]");
}

TEST(Json, EscapesControlCharacters) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.value("a\"b\\c\nd\te");
  EXPECT_EQ(os.str(), R"("a\"b\\c\nd\te")");
}

TEST(Json, NanBecomesNull) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.value(std::nan(""));
  EXPECT_EQ(os.str(), "null");
}

TEST(Json, EscapingRoundTripsThroughAParser) {
  // Every byte a span name or node id could carry must survive
  // write -> parse unchanged (the Chrome trace and metrics exports depend
  // on this; util::JsonReader is the independent reader).
  std::string nasty = "quote\" backslash\\ slash/ tab\t nl\n cr\r bs\b ff\f";
  for (char c = 1; c < 0x20; ++c) nasty.push_back(c);  // every control byte
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_object();
  w.key(nasty);
  w.value(nasty);
  w.end_object();
  const tj::Value doc = tj::parse(os.str());
  ASSERT_TRUE(doc.has(nasty));
  EXPECT_EQ(doc.at(nasty).str(), nasty);
}

TEST(Json, Utf8PassesThroughUnmangled) {
  // Multi-byte UTF-8 must not be escaped byte-by-byte: emit raw, re-read
  // identical. (Node ids are operator-chosen strings.)
  const std::string utf8 = "n\xC3\xB8" "de-\xE2\x82\xAC-\xF0\x9F\x93\xA1";
  std::ostringstream os;
  u::JsonWriter w(os);
  w.value(utf8);
  EXPECT_NE(os.str().find(utf8), std::string::npos);
  EXPECT_EQ(tj::parse(os.str()).str(), utf8);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  // JSON has no Inf/NaN literal; emitting them raw would poison every
  // downstream parser, so the writer substitutes null.
  for (double v : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    std::ostringstream os;
    u::JsonWriter w(os);
    w.value(v);
    EXPECT_EQ(os.str(), "null");
    EXPECT_TRUE(tj::parse(os.str()).is_null());
  }
}

TEST(Json, NumbersRoundTrip) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_array();
  w.value(-12.5);
  w.value(1e-9);
  w.value(std::int64_t{-9007199254740993});  // beyond double's exact range
  w.value(0);
  w.end_array();
  const tj::Value doc = tj::parse(os.str());
  ASSERT_EQ(doc.array().size(), 4u);
  EXPECT_DOUBLE_EQ(doc.array()[0].number(), -12.5);
  EXPECT_DOUBLE_EQ(doc.array()[1].number(), 1e-9);
  EXPECT_EQ(doc.array()[2].integer<std::int64_t>(), -9007199254740993);
  EXPECT_DOUBLE_EQ(doc.array()[3].number(), 0.0);
}

TEST(Json, RejectsProtocolErrors) {
  {
    std::ostringstream os;
    u::JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    std::ostringstream os;
    u::JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    std::ostringstream os;
    u::JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
}

// ------------------------------------------------------------ json reader ----

namespace {

/// What `f` throws as std::invalid_argument ("" when it returns).
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string parse_error(std::string_view text) {
  return error_of([text] { (void)tj::parse(text); });
}

}  // namespace

TEST(JsonReader, Rfc8259Vectors) {
  const tj::Value doc = tj::parse(
      " {\"s\":\"q\\\" b\\\\ s\\/ \\b\\f\\n\\r\\t \\u00e9\\u20AC\\ud83d\\ude00\","
      "\"n\":[0,-0,1.5,-2.5e-3,1E2,123456789],\"t\":true,\"f\":false,"
      "\"z\":null,\"e\":{},\"a\":[]}\r\n");
  EXPECT_EQ(doc.at("s").str(),
            "q\" b\\ s/ \b\f\n\r\t \xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
  const tj::Array& n = doc.at("n").array();
  ASSERT_EQ(n.size(), 6u);
  EXPECT_EQ(n[0].number(), 0.0);
  EXPECT_TRUE(std::signbit(n[1].number()));
  EXPECT_EQ(n[2].number(), 1.5);
  EXPECT_EQ(n[3].number(), -2.5e-3);
  EXPECT_EQ(n[4].number(), 100.0);
  EXPECT_EQ(n[5].integer<int>(), 123456789);
  EXPECT_TRUE(doc.at("t").boolean());
  EXPECT_FALSE(doc.at("f").boolean());
  EXPECT_TRUE(doc.at("z").is_null());
  EXPECT_TRUE(doc.at("e").object().empty());
  EXPECT_TRUE(doc.at("a").array().empty());
  EXPECT_EQ(tj::parse(R"("a\"b")").str(), "a\"b");
  EXPECT_EQ(tj::parse("7").number(), 7.0);
}

TEST(JsonReader, RejectsNonRfcInputAtItsByteOffset) {
  const std::pair<std::string, std::string> cases[] = {
      {R"({"a":1,"a":2})", "duplicate key 'a' at byte 7"},
      {"\"tab\there\"", "raw control character in string at byte 4"},
      {R"("\ud800")", "lone high surrogate at byte 7"},
      {R"("\ud800\u0041")", "lone high surrogate at byte 13"},
      {R"("\udc00")", "lone low surrogate at byte 7"},
      {"+1", "expected a JSON value at byte 0"},
      {".5", "expected a JSON value at byte 0"},
      {"01", "trailing content after document at byte 1"},
      {"NaN", "expected a JSON value at byte 0"},
      {"1.", "expected a JSON value at byte 0"},
      {"1e400", "number out of range at byte 0"},
      {"[1] x", "trailing content after document at byte 4"},
      {"[1,]", "expected a JSON value at byte 3"},
      {R"({"a" 1})", "expected ':' at byte 5"},
      {R"("\x")", "bad escape at byte 2"},
      {R"("\u12G4")", "bad \\u escape at byte 3"},
      {"[", "unexpected end of input at byte 1"},
      {"", "unexpected end of input at byte 0"},
  };
  for (const auto& [text, message] : cases)
    EXPECT_EQ(parse_error(text), message) << text;
}

TEST(JsonReader, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(parse_error(nested(tj::kMaxDepth)), "");
  EXPECT_EQ(parse_error(nested(tj::kMaxDepth + 1)),
            "nesting deeper than 64 levels at byte 64");
  // A 128 KiB bomb throws instead of overflowing the recursive reader's stack.
  EXPECT_EQ(parse_error(std::string(128 * 1024, '[')),
            "nesting deeper than 64 levels at byte 64");
}

TEST(JsonReader, IntegersConvertExactlyFromTheNumberText) {
  EXPECT_EQ(tj::parse("18446744073709551615").integer<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(tj::parse("-9223372036854775808").integer<std::int64_t>(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(tj::parse("1e3").integer<int>(), 1000);
  EXPECT_EQ(tj::parse("2.50E1").integer<int>(), 25);
  EXPECT_EQ(tj::parse("-0.0").integer<unsigned>(), 0u);
  const auto error = [](const char* text) {
    return error_of([text] { (void)tj::parse(text).integer<std::int32_t>("x"); });
  };
  EXPECT_EQ(error("2.7"), "x must be an integer, got 2.7");
  EXPECT_EQ(error("1e-1"), "x must be an integer, got 1e-1");
  EXPECT_EQ(error("2147483648"), "x = 2147483648 is out of range");
  EXPECT_EQ(error("-2147483649"), "x = -2147483649 is out of range");
  EXPECT_EQ(error(R"("7")"), "x must be an integer");
  EXPECT_EQ(error_of([] { (void)tj::parse("-1").integer<unsigned>("x"); }),
            "x = -1 must not be negative");

  // Bare-text form, as command-line flags use it: one number, nothing else.
  EXPECT_EQ(tj::integer<unsigned>("4", "--threads"), 4u);
  EXPECT_EQ(tj::number("2.5", "--slo"), 2.5);
  EXPECT_EQ(error_of([] { (void)tj::integer<int>("1e999999999999", "x"); }),
            "x = 1e999999999999 is out of range");
  for (const char* text : {"four", " 4", "4 ", "+4", "", "0x10", "[4]"})
    EXPECT_EQ(error_of([text] { (void)tj::integer<unsigned>(text, "--threads"); }),
              "--threads must be a number, got '" + std::string(text) + "'");
  EXPECT_EQ(error_of([] { (void)tj::number("1e999", "--slo"); }),
            "--slo = 1e999 is out of range");
}

TEST(JsonReader, ProfileProbeInputsThrowNamingTheField) {
  namespace sd = speccal::sdr;
  namespace sc = speccal::scenario;
  const std::pair<const char*, const char*> fault_probes[] = {
      {R"({"nodes":[{"index":-1}]})", "nodes[0].index = -1 must not be negative"},
      {R"({"nodes":[{"index":2,"faults":[{"first":0},{"first":-3}]}]})",
       "nodes[0].faults[1].first = -3 must not be negative"},
      {R"({"expected_quarantined_nodes":-1})",
       "expected_quarantined_nodes = -1 must not be negative"},
      {R"({"retry_max_attempts":1e10})", "retry_max_attempts = 1e10 is out of range"},
      {R"({"nodes":[{"index":2.7}]})", "nodes[0].index must be an integer, got 2.7"},
      {R"({"seed":1,"seed":2})", "duplicate key 'seed' at byte 10"},
      {R"({"initial_backoff_s":+.5e1})", "expected a JSON value at byte 21"},
      {R"({"nodes":[{"index":1,"faults":[{"op":"jam"}]}]})",
       "nodes[0].faults[0].op: unknown value 'jam' (capture|tune|gain)"},
      {R"({"nodes":[{"index":1,"faults":[{"count":"1"}]}]})",
       "nodes[0].faults[0].count must be an integer"},
      {R"({"nodes":{}})", "nodes must be an array"},
      {R"({"nodes":[{"faults":[{"when":1}]}]})", "unknown key 'nodes[0].faults[0].when'"},
  };
  for (const auto& [doc, message] : fault_probes)
    EXPECT_EQ(error_of([doc] { (void)sd::make_fault_profile(doc); }),
              std::string("fault profile: ") + message);
  const std::pair<const char*, const char*> adversary_probes[] = {
      {R"({"seed":-5})", "seed = -5 must not be negative"},
      {R"({"nodes":[{"index":-1,"adversaries":[]}]})",
       "nodes[0].index = -1 must not be negative"},
      {R"({"nodes":[{"adversaries":[{"range_m":true}]}]})",
       "nodes[0].adversaries[0].range_m must be a number"},
  };
  for (const auto& [doc, message] : adversary_probes)
    EXPECT_EQ(error_of([doc] { (void)sc::make_adversary_profile(doc); }),
              std::string("adversary profile: ") + message);

  // Escapes are JSON like any other; a u64 seed above 2^53 is exact.
  EXPECT_EQ(sd::make_fault_profile(R"({"name":"a\"b"})").name, "a\"b");
  EXPECT_EQ(sd::make_fault_profile(R"({"seed":18446744073709551615})").seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(sc::make_adversary_profile(R"({"seed":18446744073709551615})").seed,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(JsonReader, SeededProfileMutationFuzz) {
  // 4000 seeded edits (substitute, insert or delete up to three bytes,
  // half of them drawn from JSON's own punctuation) of one valid fault and
  // one valid adversary document. Every mutant must come back as a profile
  // that passes validate() or be refused with std::invalid_argument;
  // nothing else may escape and nothing may crash (the sanitizer CI leg
  // runs this too).
  namespace sd = speccal::sdr;
  namespace sc = speccal::scenario;
  const std::string docs[] = {
      R"({"name":"f","seed":7,"retry_max_attempts":4,"initial_backoff_s":0.01,)"
      R"("stage_deadline_s":0,"expected_quarantined_nodes":1,"nodes":[)"
      R"({"index":5,"faults":[{"op":"capture","kind":"throw","first":0,)"
      R"("count":-1,"param":0,"probability":1}]},{"index":9,"faults":[)"
      R"({"op":"tune","kind":"tune_refuse","first":2,"count":3,)"
      R"("probability":0.5}]}]})",
      R"({"name":"a","seed":7,"nodes":[{"index":3,"adversaries":[)"
      R"({"kind":"spurious-cw","eirp_dbm":30,"range_m":150,"azimuth_deg":270}]},)"
      R"({"index":4,"adversaries":[{"kind":"ghost-adsb"}]}]})",
  };
  const std::string punctuation = "{}[]\",:-+.0123456789eE \\u";
  u::Rng rng(13);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string doc = docs[iter % 2];
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(doc.size()) - 1));
      const char c = rng.chance(0.5)
                         ? punctuation[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(punctuation.size()) - 1))]
                         : static_cast<char>(rng.uniform_int(0, 255));
      switch (rng.uniform_int(0, 2)) {
        case 0: doc[pos] = c; break;
        case 1: doc.insert(pos, 1, c); break;
        default: doc.erase(pos, 1);
      }
    }
    try {
      if (iter % 2 == 0) sd::make_fault_profile(doc).validate();
      else sc::make_adversary_profile(doc).validate();
      ++accepted;
    } catch (const std::invalid_argument&) {
    }
  }
  // Some edits keep the document valid (a digit for a digit, a space).
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 4000u);
}

// ----------------------------------------------------------------- args ----

namespace {

/// A command line as main() receives it; argv[0] is "prog".
class CommandLine {
 public:
  CommandLine(std::initializer_list<const char*> args) : words_{"prog"} {
    words_.insert(words_.end(), args.begin(), args.end());
    for (auto& w : words_) argv_.push_back(w.data());
  }
  CommandLine(const CommandLine&) = delete;  // argv_ points into words_
  [[nodiscard]] u::Args args() {
    return u::Args(static_cast<int>(argv_.size()), argv_.data());
  }

 private:
  std::vector<std::string> words_;
  std::vector<char*> argv_;
};

}  // namespace

TEST(Args, NumbersFollowTheJsonReaderRule) {
  CommandLine line{"--nodes=1e3", "--seconds=2.5", "7", "--bad=2.7", "-1"};
  u::Args args = line.args();
  EXPECT_EQ(args.integer<std::size_t>("--nodes", 20), 1000u);
  EXPECT_EQ(args.number("--seconds", 1.0), 2.5);
  EXPECT_EQ(args.integer("count", 0), 7);
  EXPECT_EQ(error_of([&] { (void)args.integer("--bad", 0); }),
            "--bad must be an integer, got 2.7");
  EXPECT_EQ(error_of([&] { (void)args.integer("aircraft", 0u); }),
            "aircraft = -1 must not be negative");
  EXPECT_EQ(args.integer("--absent", 42u), 42u);  // absent: the fallback
  EXPECT_EQ(args.number("seconds", 0.5), 0.5);

  CommandLine words{"--iters=0", "--nodes=abc", "--x=+1"};
  u::Args more = words.args();
  EXPECT_EQ(error_of([&] { (void)more.integer("--iters", 8, 1); }),
            "--iters = 0 must be at least 1");
  EXPECT_EQ(error_of([&] { (void)more.integer<std::size_t>("--nodes", 20); }),
            "--nodes must be a number, got 'abc'");
  EXPECT_EQ(error_of([&] { (void)more.number("--x", 0.0); }),
            "--x must be a number, got '+1'");

  // Upper bounds: decode_farm's queue holds nodes x 4096 segments, so 2^52
  // nodes would wrap it to 0; the count is refused before it sizes anything.
  CommandLine counts{"--nodes=4503599627370496", "--threads=256"};
  u::Args bounded = counts.args();
  EXPECT_EQ(error_of([&] { (void)bounded.integer<std::size_t>("--nodes", 20, 1, 1000); }),
            "--nodes = 4503599627370496 must be at most 1000");
  EXPECT_EQ(bounded.integer("--threads", 2u, 0, 256), 256u);  // the bound itself
}

TEST(Args, WordsComeFromTheListedSet) {
  CommandLine line{"indoor", "outdoorr", "--encoding=fixed8"};
  u::Args args = line.args();
  EXPECT_EQ(args.word("site", 0, {{"rooftop", 1}, {"indoor", 3}}), 3);
  EXPECT_EQ(error_of([&] {
              (void)args.word("deployment", true,
                              {{"indoor", true}, {"outdoor", false}});
            }),
            "deployment: unknown value 'outdoorr' (indoor|outdoor)");
  EXPECT_EQ(args.word<std::string>("--encoding", "float32",
                                   {{"float32", "f32"}, {"fixed8", "q8"}}),
            "q8");
  EXPECT_EQ(args.word("category", 'A', {{"A", 'A'}, {"B", 'B'}}), 'A');
  args.finish();
}

TEST(Args, PositionalsReadInOrderAroundFlags) {
  CommandLine line{"first", "--out=a=b", "second", "--empty="};
  u::Args args = line.args();
  EXPECT_EQ(args.text("one"), "first");
  EXPECT_EQ(args.text("--out"), "a=b");  // the value runs to the end
  EXPECT_EQ(args.text("two"), "second");
  EXPECT_EQ(args.text("three"), std::nullopt);
  EXPECT_EQ(args.text("--empty"), "");
  EXPECT_EQ(args.text("--missing"), std::nullopt);
  args.finish();
}

TEST(Args, UnknownExtraAndRepeatedArgumentsAreErrors) {
  const auto finish_error = [](CommandLine line, auto&& read) {
    u::Args args = line.args();
    return error_of([&] {
      read(args);
      args.finish();
    });
  };
  const auto reads_threads = [](u::Args& a) { (void)a.integer("--threads", 0u); };
  EXPECT_EQ(finish_error({"4"}, reads_threads), "unexpected argument '4'");
  EXPECT_EQ(finish_error({"--slo-budget-ms=50"}, reads_threads),
            "unknown flag --slo-budget-ms=50");
  EXPECT_EQ(finish_error({"--threads=2", "--threads=3"}, reads_threads),
            "--threads is given twice");
  EXPECT_EQ(finish_error({"--threads"}, reads_threads),
            "--threads needs a value (--threads=...)");
  // A flag name is matched whole, never as a prefix of another flag.
  EXPECT_EQ(finish_error({"--threadsx=2"}, reads_threads),
            "unknown flag --threadsx=2");
  const auto reads_site = [](u::Args& a) { (void)a.text("site"); };
  EXPECT_EQ(finish_error({"rooftop", "junk"}, reads_site),
            "unexpected argument 'junk'");
  EXPECT_EQ(finish_error({"rooftop", "--x=1"}, reads_site), "unknown flag --x=1");
  EXPECT_EQ(finish_error({"rooftop"}, reads_site), "");
}

TEST(Args, RestHandsLeftoversToASecondParser) {
  CommandLine line{"--benchmark_filter=BM_Fir", "--json=out.json",
                   "--benchmark_list_tests", "--compare-iters=500"};
  u::Args args = line.args();
  EXPECT_EQ(args.text("--json"), "out.json");
  EXPECT_EQ(args.integer<std::size_t>("--compare-iters", 0), 500u);
  const std::vector<char*> rest = args.rest();
  std::vector<std::string> seen(rest.begin(), rest.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"prog", "--benchmark_filter=BM_Fir",
                                            "--benchmark_list_tests"}));
  args.finish();  // rest() read them all
  // Our own flags are still strict.
  CommandLine twice{"--json=a", "--json=b", "--benchmark_filter=x"};
  u::Args strict = twice.args();
  EXPECT_EQ(error_of([&] { (void)strict.text("--json"); }),
            "--json is given twice");
}
