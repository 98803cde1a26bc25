// Tests for the shared CLI option parser (eval/cli.hpp), focused on the
// numeric-parse edge cases: physical parameters must be finite, overflow
// must be rejected, and errno handling must not leak across calls.
#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include "eval/cli.hpp"

namespace ff::eval {
namespace {

double parse_double_or_nan(const std::string& text) {
  double v = -12345.0;
  return cli_detail::parse_value(text, v) ? v : -12345.0;
}

TEST(CliParseDouble, AcceptsOrdinaryValues) {
  double v = 0.0;
  EXPECT_TRUE(cli_detail::parse_value(std::string("3.25"), v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(cli_detail::parse_value(std::string("-110"), v));
  EXPECT_DOUBLE_EQ(v, -110.0);
  EXPECT_TRUE(cli_detail::parse_value(std::string("2e6"), v));
  EXPECT_DOUBLE_EQ(v, 2e6);
  // Hex floats are an intentional strtod feature and parse to finite values.
  EXPECT_TRUE(cli_detail::parse_value(std::string("0x1p4"), v));
  EXPECT_DOUBLE_EQ(v, 16.0);
}

TEST(CliParseDouble, RejectsNonFinite) {
  // "inf"/"nan" are valid strtod spellings but never valid physical
  // parameters (a --cancellation-db of inf would silently zero all noise).
  for (const char* text : {"inf", "-inf", "infinity", "nan", "nan(0)", "NAN"}) {
    double v = 0.0;
    EXPECT_FALSE(cli_detail::parse_value(std::string(text), v)) << text;
  }
}

TEST(CliParseDouble, RejectsOverflowViaErange) {
  // 1e999 overflows to HUGE_VAL with errno = ERANGE.
  double v = 0.0;
  EXPECT_FALSE(cli_detail::parse_value(std::string("1e999"), v));
  EXPECT_FALSE(cli_detail::parse_value(std::string("-1e999"), v));
}

TEST(CliParseDouble, StaleErrnoDoesNotPoisonParse) {
  errno = ERANGE;  // left over from an unrelated earlier call
  double v = 0.0;
  EXPECT_TRUE(cli_detail::parse_value(std::string("1.5"), v));
  EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(CliParseDouble, RejectsTrailingGarbageAndEmpty) {
  EXPECT_EQ(parse_double_or_nan("1.5x"), -12345.0);
  EXPECT_EQ(parse_double_or_nan(""), -12345.0);
  EXPECT_EQ(parse_double_or_nan("  "), -12345.0);
}

TEST(CliParseUnsigned, RejectsSignsAndOverflow) {
  unsigned long long v = 0;
  EXPECT_FALSE(cli_detail::parse_unsigned(std::string("-1"), v));
  EXPECT_FALSE(cli_detail::parse_unsigned(std::string("+1"), v));
  EXPECT_TRUE(cli_detail::parse_unsigned(std::string("42"), v));
  EXPECT_EQ(v, 42ull);
  // 2^64 overflows with ERANGE.
  EXPECT_FALSE(cli_detail::parse_unsigned(std::string("18446744073709551616"), v));
}

TEST(Cli, NonFiniteOptionValueFailsParse) {
  double snr = 10.0;
  Cli cli("test", "test program");
  cli.add_option("--snr", &snr, "snr in dB");
  char arg0[] = "test";
  char arg1[] = "--snr=nan";
  char* argv[] = {arg0, arg1};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_EQ(cli.exit_code(), 2);
  EXPECT_DOUBLE_EQ(snr, 10.0);  // target untouched on failure
}

TEST(Cli, ParsesMixedOptionsAndFlags) {
  double db = 0.0;
  std::size_t n = 0;
  bool flag = false;
  Cli cli("test", "test program");
  cli.add_option("--db", &db, "a dB value")
      .add_option("--n", &n, "a count")
      .add_flag("--fast", &flag, "go fast");
  char arg0[] = "test";
  char arg1[] = "--db=-30.5";
  char arg2[] = "--n";
  char arg3[] = "17";
  char arg4[] = "--fast";
  char* argv[] = {arg0, arg1, arg2, arg3, arg4};
  EXPECT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(db, -30.5);
  EXPECT_EQ(n, 17u);
  EXPECT_TRUE(flag);
}

TEST(StreamCli, DefaultsAreValid) {
  StreamCli stream;
  Cli cli("test", "test program");
  stream.register_options(cli);
  char arg0[] = "test";
  char* argv[] = {arg0};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_TRUE(stream.validate());
  EXPECT_EQ(stream.block_size(), 256u);
  EXPECT_DOUBLE_EQ(stream.duration_s(), 5e-3);
  EXPECT_EQ(stream.backpressure(), 8u);
  EXPECT_EQ(stream.threads(), 1u);
  EXPECT_EQ(stream.mode(), "reference");
  EXPECT_FALSE(stream.is_throughput());
  EXPECT_EQ(stream.batch_size(), 8u);
  EXPECT_FALSE(stream.pin_cores());
  EXPECT_EQ(stream.metrics(), nullptr);  // no --metrics = no-op telemetry
}

TEST(StreamCli, ParsesAllKnobs) {
  StreamCli stream;
  Cli cli("test", "test program");
  stream.register_options(cli);
  char arg0[] = "test";
  char arg1[] = "--block-size=64";
  char arg2[] = "--duration";
  char arg3[] = "1e-3";
  char arg4[] = "--backpressure=2";
  char arg5[] = "--threads=4";
  char arg6[] = "--mode=throughput";
  char arg7[] = "--batch-size=16";
  char arg8[] = "--pin-cores";
  char* argv[] = {arg0, arg1, arg2, arg3, arg4, arg5, arg6, arg7, arg8};
  ASSERT_TRUE(cli.parse(9, argv));
  EXPECT_TRUE(stream.validate());
  EXPECT_EQ(stream.block_size(), 64u);
  EXPECT_DOUBLE_EQ(stream.duration_s(), 1e-3);
  EXPECT_EQ(stream.backpressure(), 2u);
  EXPECT_EQ(stream.threads(), 4u);
  EXPECT_EQ(stream.mode(), "throughput");
  EXPECT_TRUE(stream.is_throughput());
  EXPECT_EQ(stream.batch_size(), 16u);
  EXPECT_TRUE(stream.pin_cores());
}

TEST(StreamCli, ValidateRejectsDegenerateValues) {
  const auto parse_one = [](const char* arg) {
    StreamCli stream;
    Cli cli("test", "test program");
    stream.register_options(cli);
    char arg0[] = "test";
    std::string owned(arg);
    char* argv[] = {arg0, owned.data()};
    EXPECT_TRUE(cli.parse(2, argv)) << arg;
    return stream.validate();
  };
  EXPECT_FALSE(parse_one("--block-size=0"));
  EXPECT_FALSE(parse_one("--backpressure=0"));
  EXPECT_FALSE(parse_one("--duration=0"));
  EXPECT_FALSE(parse_one("--duration=-1e-3"));
  EXPECT_FALSE(parse_one("--mode=turbo"));  // unknown scheduler name
  EXPECT_FALSE(parse_one("--batch-size=0"));
  EXPECT_TRUE(parse_one("--block-size=1"));
  EXPECT_TRUE(parse_one("--mode=throughput"));
}

TEST(StreamCli, ThreadsOtherThanOneNeedThroughputMode) {
  // Reference mode is one chain on the calling thread; any other --threads
  // value names throughput chains and needs --mode throughput.
  const auto validate = [](std::vector<std::string> args) {
    StreamCli stream;
    Cli cli("test", "test program");
    stream.register_options(cli);
    std::string arg0 = "test";
    std::vector<char*> argv{arg0.data()};
    for (std::string& a : args) argv.push_back(a.data());
    EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    return stream.validate();
  };
  EXPECT_FALSE(validate({"--threads=4"}));
  EXPECT_FALSE(validate({"--threads=4", "--mode=reference"}));
  EXPECT_FALSE(validate({"--threads=0"}));
  EXPECT_TRUE(validate({"--threads=4", "--mode=throughput"}));
  EXPECT_TRUE(validate({"--threads=0", "--mode=throughput"}));
  EXPECT_TRUE(validate({"--threads=1"}));
}

TEST(StreamCli, GraphAndSetOptions) {
  StreamCli stream;
  Cli cli("test", "test program");
  stream.register_options(cli);
  char arg0[] = "test";
  char arg1[] = "--graph=session.ff";
  char arg2[] = "--set";
  char arg3[] = "fir.set_taps=(0.9,0),(0.1,0)";
  char arg4[] = "--set=cfo.set_cfo=1500";
  char* argv[] = {arg0, arg1, arg2, arg3, arg4};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_TRUE(stream.validate());
  EXPECT_EQ(stream.graph(), "session.ff");

  // --set is repeatable and keeps argv order.
  ASSERT_EQ(stream.sets().size(), 2u);
  const auto writes = stream.writes();
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].element, "fir");
  EXPECT_EQ(writes[0].handler, "set_taps");
  // The value is everything after the first '=', inner '='-free commas kept.
  EXPECT_EQ(writes[0].value, "(0.9,0),(0.1,0)");
  EXPECT_EQ(writes[1].element, "cfo");
  EXPECT_EQ(writes[1].handler, "set_cfo");
  EXPECT_EQ(writes[1].value, "1500");
}

TEST(StreamCli, ValidateRejectsMalformedSet) {
  const auto set_one = [](const char* set_value) {
    StreamCli stream;
    Cli cli("test", "test program");
    stream.register_options(cli);
    char arg0[] = "test";
    char arg1[] = "--set";
    std::string owned(set_value);
    char* argv[] = {arg0, arg1, owned.data()};
    EXPECT_TRUE(cli.parse(3, argv)) << set_value;
    return stream.validate();
  };
  EXPECT_FALSE(set_one("no-equals"));          // no '=' at all
  EXPECT_FALSE(set_one("nodot=value"));        // no elem.handler split
  EXPECT_FALSE(set_one(".handler=value"));     // empty element
  EXPECT_FALSE(set_one("elem.=value"));        // empty handler
  EXPECT_TRUE(set_one("elem.handler="));       // empty value is legal
  EXPECT_TRUE(set_one("gate.set_open=true"));
}

}  // namespace
}  // namespace ff::eval
