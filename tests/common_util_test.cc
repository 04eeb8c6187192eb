#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace metalora {
namespace {

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  abc \n"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("metalora", "meta"));
  EXPECT_FALSE(StartsWith("meta", "metalora"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "file.csv"));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1000), "-1,000");
  EXPECT_EQ(FormatWithCommas(12), "12");
  EXPECT_EQ(HumanCount(1500.0), "1.50k");
  EXPECT_EQ(HumanCount(2.5e6), "2.50M");
  EXPECT_EQ(HumanCount(3e9), "3.00G");
  EXPECT_EQ(HumanCount(12.0), "12.00");
}

TEST(CsvTest, EscapesSpecialFields) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WritesRows) {
  const std::string path = "/tmp/ml_csv_test.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.status().ok());
    w.WriteRow({"method", "acc"});
    w.WriteRow({"Meta-LoRA, TR", "0.73"});
    ASSERT_TRUE(w.Close().ok());
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "method,acc");
  EXPECT_EQ(line2, "\"Meta-LoRA, TR\",0.73");
  std::remove(path.c_str());
}

TEST(CsvTest, BadPathReportsIOError) {
  CsvWriter w("/nonexistent-dir/x.csv");
  EXPECT_EQ(w.status().code(), StatusCode::kIOError);
}

TEST(CliTest, ParsesAllTypes) {
  CommandLine cli;
  cli.AddInt("rank", 4, "adapter rank");
  cli.AddDouble("lr", 0.001, "learning rate");
  cli.AddBool("quick", false, "quick mode");
  cli.AddString("backbone", "resnet", "backbone kind");

  const char* argv[] = {"prog", "--rank=8", "--lr", "0.01", "--quick",
                        "--backbone=mixer"};
  ASSERT_TRUE(cli.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(cli.GetInt("rank"), 8);
  EXPECT_DOUBLE_EQ(cli.GetDouble("lr"), 0.01);
  EXPECT_TRUE(cli.GetBool("quick"));
  EXPECT_EQ(cli.GetString("backbone"), "mixer");
}

TEST(CliTest, DefaultsSurvive) {
  CommandLine cli;
  cli.AddInt("rank", 4, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(cli.GetInt("rank"), 4);
}

TEST(CliTest, RejectsUnknownFlag) {
  CommandLine cli;
  const char* argv[] = {"prog", "--oops=1"};
  EXPECT_EQ(cli.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, RejectsBadValues) {
  CommandLine cli;
  cli.AddInt("n", 0, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(cli.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(CliTest, HelpRequested) {
  CommandLine cli;
  cli.AddInt("n", 0, "count");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(cli.help_requested());
  EXPECT_NE(cli.Usage("prog").find("count"), std::string::npos);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t("Results");
  t.SetHeader({"method", "acc"});
  t.AddRow({"LoRA", "0.62"});
  t.AddSeparator();
  t.AddRow({"Meta-LoRA TR", "0.73"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("Results"), std::string::npos);
  EXPECT_NE(out.find("| method"), std::string::npos);
  EXPECT_NE(out.find("Meta-LoRA TR"), std::string::npos);
  // Every body line has the same width.
  size_t first_bar = out.find('+');
  ASSERT_NE(first_bar, std::string::npos);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Micros(), t.Millis());
}

}  // namespace
}  // namespace metalora
