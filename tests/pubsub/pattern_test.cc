#include "pubsub/pattern.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pubsub/server.h"

namespace dynamoth::ps {
namespace {

void expect_same(const std::string& pattern, const std::string& text) {
  const CompiledPattern cp = CompiledPattern::compile(pattern);
  EXPECT_EQ(cp.match(text), PubSubServer::glob_match(pattern, text))
      << "pattern=\"" << pattern << "\" text=\"" << text << "\"";
}

TEST(CompiledPattern, LiteralPatterns) {
  expect_same("", "");
  expect_same("", "a");
  expect_same("abc", "abc");
  expect_same("abc", "abcd");
  expect_same("abc", "ab");
  expect_same("abc", "xbc");
  EXPECT_TRUE(CompiledPattern::compile("tile:4:2").literal());
}

TEST(CompiledPattern, StarOnly) {
  expect_same("*", "");
  expect_same("*", "anything");
  expect_same("**", "x");
  expect_same("***", "");
}

TEST(CompiledPattern, AnchoredPrefixSuffix) {
  expect_same("a*", "a");
  expect_same("a*", "abc");
  expect_same("a*", "ba");
  expect_same("*a", "a");
  expect_same("*a", "ba");
  expect_same("*a", "ab");
  expect_same("a*c", "ac");
  expect_same("a*c", "abc");
  expect_same("a*c", "abcd");
  expect_same("a*a", "aa");
  expect_same("a*a", "a");
}

TEST(CompiledPattern, MiddleSegments) {
  expect_same("a*bc", "aXbXbc");
  expect_same("a*b*c", "abc");
  expect_same("a*b*c", "aXbYc");
  expect_same("a*b*c", "acb");
  expect_same("*a*b*", "xxbxxaxx");
  expect_same("*a*b*", "xaxbx");
  expect_same("t:*:*:z", "t:1:z");
  expect_same("t:*:*:z", "t:1:2:z");
  expect_same("*aab*ab*", "aaabab");
  expect_same("*ab*b*", "aabb");
}

TEST(CompiledPattern, ChannelShapedPatterns) {
  for (const char* p : {"tile:*", "tile:*:east", "*:chat", "player:*:inv*", "@ctl:*"}) {
    for (const char* t : {"tile:4", "tile:4:east", "tile::east", "room:chat", "player:9:invx",
                          "player:9:in", "@ctl:disp", "tile:", ""}) {
      expect_same(p, t);
    }
  }
}

TEST(CompiledPattern, MinLenAndFirstBytePrefilter) {
  const CompiledPattern cp = CompiledPattern::compile("tile:*:east");
  EXPECT_EQ(cp.min_len(), 10u);           // "tile:" + ":east"
  EXPECT_FALSE(cp.match("tile:east"));    // 9 chars: rejected by length alone
  EXPECT_FALSE(cp.match("Tile:4:east"));  // first byte mismatch
  EXPECT_TRUE(cp.match("tile:4:east"));
}

TEST(CompiledPattern, RandomizedEquivalenceWithGlobMatch) {
  // Small alphabet with plenty of '*' so structure collisions are common.
  Rng rng(0xBEEF);
  const char alphabet[] = {'a', 'b', ':', '*'};
  const char text_alphabet[] = {'a', 'b', ':'};
  for (int iter = 0; iter < 30000; ++iter) {
    std::string pattern;
    const int plen = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < plen; ++i) {
      pattern.push_back(alphabet[rng.uniform_int(0, 3)]);
    }
    std::string text;
    const int tlen = static_cast<int>(rng.uniform_int(0, 10));
    for (int i = 0; i < tlen; ++i) {
      text.push_back(text_alphabet[rng.uniform_int(0, 2)]);
    }
    const CompiledPattern cp = CompiledPattern::compile(pattern);
    ASSERT_EQ(cp.match(text), PubSubServer::glob_match(pattern, text))
        << "pattern=\"" << pattern << "\" text=\"" << text << "\"";
  }
}

}  // namespace
}  // namespace dynamoth::ps
