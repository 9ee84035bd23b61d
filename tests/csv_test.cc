#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/csv.h"
#include "util/random.h"

namespace mergepurge {
namespace {

TEST(CsvParseTest, SimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[0], "a");
  EXPECT_EQ((*fields)[2], "c");
}

TEST(CsvParseTest, EmptyFields) {
  auto fields = ParseCsvLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 3u);
  for (const auto& f : *fields) EXPECT_EQ(f, "");
}

TEST(CsvParseTest, QuotedFieldWithComma) {
  auto fields = ParseCsvLine("\"a,b\",c");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 2u);
  EXPECT_EQ((*fields)[0], "a,b");
}

TEST(CsvParseTest, DoubledQuotes) {
  auto fields = ParseCsvLine("\"he said \"\"hi\"\"\"");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 1u);
  EXPECT_EQ((*fields)[0], "he said \"hi\"");
}

TEST(CsvParseTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvLine("\"oops").ok());
}

TEST(CsvParseTest, QuoteMidFieldFails) {
  EXPECT_FALSE(ParseCsvLine("ab\"cd\"").ok());
}

TEST(CsvEscapeTest, PlainPassesThrough) {
  EXPECT_EQ(EscapeCsvField("abc"), "abc");
}

TEST(CsvEscapeTest, CommaAndQuoteAreQuoted) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
}

TEST(CsvEscapeTest, EdgeSpacesAreQuoted) {
  EXPECT_EQ(EscapeCsvField(" x"), "\" x\"");
}

Dataset MakeDataset() {
  Dataset d(Schema({"name", "city"}));
  d.Append(Record({"SMITH, JOHN", "NEW YORK"}));
  d.Append(Record({"o\"neil", ""}));
  return d;
}

TEST(CsvRoundTripTest, StringRoundTrip) {
  Dataset original = MakeDataset();
  std::string text = WriteCsvString(original);
  Result<Dataset> parsed = ReadCsvString(original.schema(), text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->record(i), original.record(i));
  }
}

TEST(CsvRoundTripTest, QuotedNewlinesRoundTrip) {
  Dataset original(Schema({"a", "b"}));
  original.Append(Record({"a\nb", "c"}));
  original.Append(Record({"crlf\r\ninside", "\n"}));
  original.Append(Record({"plain", "last"}));
  std::string text = WriteCsvString(original);
  Result<Dataset> parsed = ReadCsvString(original.schema(), text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->record(i), original.record(i)) << "row " << i;
  }
}

TEST(CsvRoundTripTest, FileRoundTrip) {
  Dataset original = MakeDataset();
  std::string path = testing::TempDir() + "/mergepurge_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  Result<Dataset> parsed = ReadCsvFile(original.schema(), path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), original.size());
  std::remove(path.c_str());
}

TEST(CsvReadTest, HeaderMismatchFails) {
  Result<Dataset> parsed =
      ReadCsvString(Schema({"x", "y"}), "a,b\n1,2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, WrongFieldCountFails) {
  Result<Dataset> parsed = ReadCsvString(Schema({"x", "y"}), "x,y\n1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, ErrorsNameSourceAndOneBasedLine) {
  // Data-row errors carry source:line with 1-based line numbers (the
  // header is line 1, the first data row is line 2).
  Result<Dataset> parsed =
      ReadCsvString(Schema({"x", "y"}), "x,y\na,b\n1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("<string>:3:"),
            std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("expected 2 fields, got 1"),
            std::string::npos)
      << parsed.status().message();

  // Header errors point at line 1.
  Result<Dataset> bad_header = ReadCsvString(Schema({"x"}), "y\nv\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.status().message().find("<string>:1:"),
            std::string::npos)
      << bad_header.status().message();
}

TEST(CsvReadTest, FileErrorsIncludeFilePath) {
  std::string path = testing::TempDir() + "/mergepurge_csv_bad.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "x,y\n1,2\nonly-one-field\n";
  }
  Result<Dataset> parsed = ReadCsvFile(Schema({"x", "y"}), path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find(path + ":3:"),
            std::string::npos)
      << parsed.status().message();
  std::remove(path.c_str());
}

// A file of many records is read in blocks and parsed in chunks on the
// pool: a malformed record far into it is still reported at its own
// line, counting the lines inside quoted fields before it, and of two
// bad records the first in file order is the one reported.
TEST(CsvReadTest, LaterChunkErrorsReportTheFirstBadLine) {
  std::string text = "x,y\n\"two\nlines\",v\n";  // Lines 1-3.
  size_t line = 3;
  auto add_rows = [&](size_t rows) {
    for (size_t i = 0; i < rows; ++i, ++line) {
      text += "row" + std::to_string(line) + ",padding-padding-padding\n";
    }
  };
  add_rows(90000);  // Many parse chunks.
  const size_t first_bad = ++line;
  text += "only-one-field\n";
  add_rows(20000);
  text += "a,\"b\"c\n";  // A later bad record.

  Result<Dataset> parsed = ReadCsvString(Schema({"x", "y"}), text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "<string>:" + std::to_string(first_bad) +
                ": expected 2 fields, got 1");

  // Without the bad records every row is read, in order.
  std::string good = "x,y\n\"two\nlines\",v\n";
  for (size_t i = 0; i < 90000; ++i) {
    good += "r" + std::to_string(i) + ",\"q\"\"" + std::to_string(i) +
            "\"\n";
  }
  Result<Dataset> all = ReadCsvString(Schema({"x", "y"}), good);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 90001u);
  EXPECT_EQ(all->record(0).field(0), "two\nlines");
  for (size_t i = 0; i < 90000; ++i) {
    ASSERT_EQ(all->record(static_cast<TupleId>(i + 1)).field(1),
              "q\"" + std::to_string(i))
        << i;
  }
}

TEST(CsvReadTest, MissingFileFails) {
  Result<Dataset> parsed =
      ReadCsvFile(Schema({"x"}), "/nonexistent/path.csv");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(CsvReadTest, CrlfLineEndingsAccepted) {
  Result<Dataset> parsed = ReadCsvString(Schema({"x"}), "x\r\nv\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->record(0).field(0), "v");
}

TEST(CsvReadTest, BlankLinesSkipped) {
  Result<Dataset> parsed = ReadCsvString(Schema({"x"}), "x\n\nv\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
}

// Property: any dataset of random printable fields, newlines included,
// survives a write/parse round trip bit-for-bit.
class CsvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  static constexpr char kChars[] =
      "abcXYZ 019,\"'#;|\t-_.!\n";  // Includes quoting triggers.
  Schema schema({"f0", "f1", "f2"});
  Dataset original(schema);
  for (int row = 0; row < 200; ++row) {
    std::vector<std::string> fields;
    for (int f = 0; f < 3; ++f) {
      std::string value;
      size_t len = rng.NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        value += kChars[rng.NextBounded(sizeof(kChars) - 1)];
      }
      fields.push_back(std::move(value));
    }
    original.Append(Record(std::move(fields)));
  }
  std::string text = WriteCsvString(original);
  Result<Dataset> parsed = ReadCsvString(schema, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->record(i), original.record(i)) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mergepurge
