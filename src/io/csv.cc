#include "io/csv.h"

#include <algorithm>

#include "io/chunked_write.h"
#include "util/fs.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace mergepurge {

namespace {

// Appends the fields of one CSV record to *fields. An unquoted field is
// copied from `line` in one piece, so its string holds exactly its bytes.
Status AppendCsvFields(std::string_view line,
                       std::vector<std::string>* fields) {
  size_t i = 0;
  while (true) {
    size_t end = 0;
    if (i < line.size() && line[i] == '"') {
      // Quoted: runs between doubled quotes, then any unquoted tail.
      std::string value;
      ++i;
      while (true) {
        const size_t quote = line.find('"', i);
        if (quote == std::string_view::npos) {
          return Status::ParseError("unterminated quoted field");
        }
        value.append(line.substr(i, quote - i));
        i = quote + 1;
        if (i < line.size() && line[i] == '"') {
          value.push_back('"');
          ++i;
          continue;
        }
        break;
      }
      end = line.find_first_of(",\"", i);
      if (end != std::string_view::npos && line[end] == '"') {
        return Status::ParseError("quote in the middle of an unquoted field");
      }
      value.append(line.substr(i, end - i));
      fields->push_back(std::move(value));
    } else {
      end = line.find_first_of(",\"", i);
      if (end != std::string_view::npos && line[end] == '"') {
        return Status::ParseError("quote in the middle of an unquoted field");
      }
      fields->emplace_back(line.substr(i, end - i));
    }
    if (end == std::string_view::npos) return Status::OK();
    i = end + 1;
  }
}

void AppendCsvField(std::string_view field, std::string* out) {
  bool needs_quotes =
      field.find_first_of(",\"\n") != std::string_view::npos ||
      (!field.empty() &&
       (field.front() == ' ' || field.back() == ' '));
  if (!needs_quotes) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendCsvRow(const std::vector<std::string>& fields, std::string* out) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendCsvField(fields[i], out);
  }
  out->push_back('\n');
}

// One record of a CSV text: bytes [begin, end) without the line ending,
// starting on 1-based line `line`.
struct RecordSpan {
  size_t begin = 0;
  size_t end = 0;
  size_t line = 0;
};

// The record-start pass: cuts `text` at every newline outside quotes and
// drops a '\r' before it. The first record is the header, kept even when
// blank; later blank records are skipped.
std::vector<RecordSpan> SplitRecords(std::string_view text) {
  std::vector<RecordSpan> records;
  size_t begin = 0;
  size_t line = 1;
  size_t begin_line = 1;
  bool in_quotes = false;
  auto cut = [&](size_t end) {
    if (end > begin && text[end - 1] == '\r') --end;
    if (end > begin || records.empty()) {
      records.push_back({begin, end, begin_line});
    }
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n') {
      ++line;
      if (!in_quotes) {
        cut(i);
        begin = i + 1;
        begin_line = line;
      }
    }
  }
  if (begin < text.size()) cut(text.size());
  return records;
}

// Parses one data record and checks its field count. The error carries
// no location; the caller prefixes source:line.
Result<std::vector<std::string>> ParseRecord(std::string_view text,
                                             size_t num_fields) {
  std::vector<std::string> fields;
  fields.reserve(num_fields);
  MERGEPURGE_RETURN_NOT_OK(AppendCsvFields(text, &fields));
  if (fields.size() != num_fields) {
    return Status::ParseError(StringPrintf(
        "expected %zu fields, got %zu", num_fields, fields.size()));
  }
  return fields;
}

Result<Dataset> ParseCsvText(const Schema& schema, std::string_view text,
                             const std::string& source_name) {
  const std::vector<RecordSpan> spans = SplitRecords(text);
  if (spans.empty()) {
    return Status::ParseError(source_name + ": missing header row");
  }
  auto view = [text](const RecordSpan& span) {
    return text.substr(span.begin, span.end - span.begin);
  };
  Result<std::vector<std::string>> header = ParseCsvLine(view(spans[0]));
  if (!header.ok()) {
    return Status::ParseError(
        StringPrintf("%s:1: %s", source_name.c_str(),
                     header.status().message().c_str()));
  }
  if (*header != schema.field_names()) {
    return Status::ParseError(source_name +
                              ":1: header does not match schema");
  }

  // Record i is spans[i + 1]. Each chunk stops at its first bad record,
  // and the first chunk with one names the first bad record in file
  // order.
  const size_t n = spans.size() - 1;
  std::vector<Record> records(n);
  std::vector<size_t> first_bad((n + kParallelGrain - 1) / kParallelGrain,
                                n);
  ParallelFor(
      first_bad.size(), AvailableCpus(),
      [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          const size_t last = std::min(n, (c + 1) * kParallelGrain);
          for (size_t i = c * kParallelGrain; i < last; ++i) {
            Result<std::vector<std::string>> fields =
                ParseRecord(view(spans[i + 1]), schema.num_fields());
            if (!fields.ok()) {
              first_bad[c] = i;
              break;
            }
            records[i] = Record(std::move(*fields));
          }
        }
      },
      /*grain=*/1);
  for (size_t bad : first_bad) {
    if (bad == n) continue;
    const RecordSpan& span = spans[bad + 1];
    return Status::ParseError(StringPrintf(
        "%s:%zu: %s", source_name.c_str(), span.line,
        ParseRecord(view(span), schema.num_fields())
            .status()
            .message()
            .c_str()));
  }
  return Dataset(schema, std::move(records));
}

}  // namespace

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  MERGEPURGE_RETURN_NOT_OK(AppendCsvFields(line, &fields));
  return fields;
}

std::string EscapeCsvField(std::string_view field) {
  std::string out;
  AppendCsvField(field, &out);
  return out;
}

std::string WriteCsvString(const Dataset& dataset) {
  std::string out;
  AppendCsvRow(dataset.schema().field_names(), &out);
  for (const Record& r : dataset.records()) AppendCsvRow(r.fields(), &out);
  return out;
}

Result<Dataset> ReadCsvString(const Schema& schema, std::string_view text) {
  return ParseCsvText(schema, text, "<string>");
}

Status WriteCsvFile(const Dataset& dataset, const std::string& path) {
  std::string header;
  AppendCsvRow(dataset.schema().field_names(), &header);
  return WriteRowsInChunks(
      path, header, dataset.size(),
      [&dataset](size_t begin, size_t end, std::string* out) {
        for (size_t t = begin; t < end; ++t) {
          AppendCsvRow(dataset.record(static_cast<TupleId>(t)).fields(), out);
        }
      });
}

Result<Dataset> ReadCsvFile(const Schema& schema, const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseCsvText(schema, *text, path);
}

}  // namespace mergepurge
