// README.md is checked against the code it documents: every backticked
// token shaped like a C++ name must still name something. A token
// counts when it contains `::`, ends in `()`, is CamelCase with an
// inner capital (`QueryService`) or is a kConstant (`kMaxBatch`); each
// of its `::` parts must occur as a whole word on a non-comment line of
// a file under include/, src/ or tools/. Fenced code blocks are not
// scanned.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

namespace itspq {
namespace {

namespace fs = std::filesystem;

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsUpper(char c) { return std::isupper(static_cast<unsigned char>(c)); }
bool IsLower(char c) { return std::islower(static_cast<unsigned char>(c)); }

// The backticked spans of a Markdown text, outside fenced code blocks.
std::vector<std::string> InlineCodeSpans(std::istream& in) {
  std::vector<std::string> spans;
  bool fenced = false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line.compare(first, 3, "```") == 0) {
      fenced = !fenced;
      continue;
    }
    if (fenced) continue;
    for (size_t open = line.find('`'); open != std::string::npos;) {
      const size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      if (close > open + 1) {
        spans.push_back(line.substr(open + 1, close - open - 1));
      }
      open = line.find('`', close + 1);
    }
  }
  return spans;
}

// The `::` parts of `span` when it is shaped like a C++ name; empty
// otherwise.
std::vector<std::string> CppNameParts(std::string span) {
  const bool call =
      span.size() > 2 && span.compare(span.size() - 2, 2, "()") == 0;
  if (call) span.resize(span.size() - 2);
  std::vector<std::string> parts;
  for (size_t begin = 0;;) {
    const size_t sep = span.find("::", begin);
    parts.push_back(span.substr(begin, sep - begin));
    if (sep == std::string::npos) break;
    begin = sep + 2;
  }
  for (const std::string& part : parts) {
    if (part.empty() || std::isdigit(static_cast<unsigned char>(part[0])) ||
        !std::all_of(part.begin(), part.end(), IsWordChar)) {
      return {};
    }
  }
  const bool camel = IsUpper(span[0]) &&
                     std::any_of(span.begin(), span.end(), IsLower) &&
                     std::any_of(span.begin() + 1, span.end(), IsUpper) &&
                     span.find('_') == std::string::npos;
  const bool constant = span.size() > 1 && span[0] == 'k' && IsUpper(span[1]);
  if (parts.size() > 1 || call || camel || constant) return parts;
  return {};
}

// Every word of a non-comment line in the files under include/, src/
// and tools/.
std::unordered_set<std::string> CodeWords(const fs::path& root) {
  std::unordered_set<std::string> words;
  for (const char* dir : {"include", "src", "tools"}) {
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path());
      std::string line;
      while (std::getline(in, line)) {
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line.compare(first, 2, "//") == 0 ||
            line.compare(first, 2, "/*") == 0 || line[first] == '*') {
          continue;
        }
        for (size_t i = first; i < line.size();) {
          if (!IsWordChar(line[i])) {
            ++i;
            continue;
          }
          size_t end = i;
          while (end < line.size() && IsWordChar(line[end])) ++end;
          words.insert(line.substr(i, end - i));
          i = end;
        }
      }
    }
  }
  return words;
}

TEST(ReadmeTest, ShapeRulePicksOutCppNames) {
  using Parts = std::vector<std::string>;
  EXPECT_EQ(CppNameParts("Router::Route"), (Parts{"Router", "Route"}));
  EXPECT_EQ(CppNameParts("Stats()"), (Parts{"Stats"}));
  EXPECT_EQ(CppNameParts("QueryService"), (Parts{"QueryService"}));
  EXPECT_EQ(CppNameParts("kMaxBatch"), (Parts{"kMaxBatch"}));
  for (const char* prose : {"itg-s", "batch_size_counts", "ITG", "p50_us",
                            "Route(request, &ctx)", "src/query/router.cc",
                            "Submit", "TCP_NODELAY", "::", "k"}) {
    EXPECT_TRUE(CppNameParts(prose).empty()) << prose;
  }

  std::istringstream markdown(
      "Call `Route()` per thread.\n```cpp\n`Fenced()`\n```\n`a` and `b`\n");
  EXPECT_EQ(InlineCodeSpans(markdown),
            (std::vector<std::string>{"Route()", "a", "b"}));
}

TEST(ReadmeTest, EveryBacktickedCppNameExistsInTheCode) {
  const fs::path root = ITSPQ_SOURCE_DIR;
  std::ifstream readme(root / "README.md");
  ASSERT_TRUE(readme) << "cannot read " << (root / "README.md");
  const std::unordered_set<std::string> words = CodeWords(root);

  std::set<std::string> checked;
  std::string missing;
  for (const std::string& span : InlineCodeSpans(readme)) {
    for (const std::string& part : CppNameParts(span)) {
      if (checked.insert(part).second && words.count(part) == 0) {
        missing += " " + part;
      }
    }
  }
  // Guards the rule itself: a parser that picks out nothing passes
  // vacuously.
  EXPECT_GT(checked.size(), 50u);
  EXPECT_TRUE(missing.empty())
      << "README.md names symbols the code no longer has:" << missing;
}

}  // namespace
}  // namespace itspq
