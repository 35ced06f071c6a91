// The byte codec shared by the wire frames and the `.itspq` sections
// (common/byte_codec.h), tested on its own: hostile counts fail before
// they allocate, CSR offsets are checked, a failure is sticky, and a
// typed round trip keeps every bit of a double.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_codec.h"

namespace itspq {
namespace {

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// Sixteen bytes that claim more than they hold, read through every
// counted reader: each fails and leaves its vector unallocated.
TEST(ByteCodecTest, HostileCountsFailWithoutAllocating) {
  ByteWriter w;
  w.Put(uint64_t{1} << 62);
  w.Put(uint64_t{7});
  const std::string bytes = std::move(w).Take();

  for (const uint64_t count : {uint64_t{3}, uint64_t{1} << 62,
                               std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE(count);
    ByteReader pod(bytes);
    std::vector<uint64_t> values;
    EXPECT_FALSE(pod.Pod(&values, count));
    EXPECT_EQ(values.capacity(), 0u);
    EXPECT_TRUE(pod.failed());

    // Offsets for `count` lists need count + 1 words; two lists need 24
    // bytes of the 16.
    ByteReader offsets(bytes);
    std::vector<uint64_t> list_offsets;
    EXPECT_FALSE(offsets.Offsets(count == 3 ? 2 : count, &list_offsets));
    EXPECT_EQ(list_offsets.capacity(), 0u);
  }
  EXPECT_TRUE(ByteReader(bytes).Fits(2, 8));
  EXPECT_FALSE(ByteReader(bytes).Fits(3, 8));

  // A pool the offsets promise but the bytes do not hold.
  ByteWriter csr;
  csr.Put(uint64_t{0});
  csr.Put(uint64_t{1} << 40);
  const std::string csr_bytes = std::move(csr).Take();
  ByteReader pool_reader(csr_bytes);
  std::vector<uint64_t> csr_offsets;
  std::vector<int32_t> pool;
  EXPECT_FALSE(pool_reader.Csr(1, &csr_offsets, &pool));
  EXPECT_EQ(pool.capacity(), 0u);

  // A string whose count passes what remains, and one past its cap.
  ByteWriter strings;
  strings.Put(uint32_t{1000});
  strings.Raw("abcd", 4);
  const std::string string_bytes = std::move(strings).Take();
  std::string s;
  EXPECT_FALSE(ByteReader(string_bytes).String(&s, 1 << 20));
  EXPECT_EQ(s.capacity(), std::string().capacity());
  ByteWriter capped;
  capped.String("abcdef");
  const std::string capped_bytes = std::move(capped).Take();
  EXPECT_FALSE(ByteReader(capped_bytes).String(&s, 5));
  ASSERT_TRUE(ByteReader(capped_bytes).String(&s, 6));
  EXPECT_EQ(s, "abcdef");
}

TEST(ByteCodecTest, CsrOffsetsStartAtZeroAndNeverDecrease) {
  const auto read = [](const std::vector<uint64_t>& words) {
    ByteWriter w;
    w.Pod(words);
    const std::string bytes = std::move(w).Take();
    ByteReader r(bytes);
    std::vector<uint32_t> offsets;
    const bool ok = r.Offsets(words.size() - 1, &offsets);
    EXPECT_EQ(ok, !r.failed());
    return ok;
  };
  EXPECT_TRUE(read({0, 2, 2, 5}));
  EXPECT_TRUE(read({0}));
  EXPECT_FALSE(read({1, 2, 3}));     // does not start at 0
  EXPECT_FALSE(read({0, 3, 2, 5}));  // decreases
  // Past the in-memory offset type.
  EXPECT_FALSE(read({0, uint64_t{1} << 32}));
}

TEST(ByteCodecTest, ReadAfterFailureStaysFailed) {
  ByteWriter w;
  w.Put(uint32_t{0xA1B2C3D4});
  const std::string bytes = std::move(w).Take();
  ByteReader r(bytes);
  uint64_t wide = 0;
  EXPECT_FALSE(r.Get(&wide));
  EXPECT_TRUE(r.failed());
  // The four bytes that would fit a u32 stay unread.
  EXPECT_EQ(r.Remaining(), 4u);
  uint32_t narrow = 0;
  EXPECT_FALSE(r.Get(&narrow));
  EXPECT_EQ(narrow, 0u);
  uint8_t byte = 0;
  EXPECT_FALSE(r.Raw(&byte, 0));
  std::vector<uint8_t> none;
  EXPECT_FALSE(r.Pod(&none, 0));
  EXPECT_FALSE(r.Fits(0, 1));
  EXPECT_TRUE(r.failed());
}

// Every value comes back with its bits, NaN payloads and signed zero
// included, laid out little-endian with no padding between fields.
TEST(ByteCodecTest, TypedRoundTripPreservesEveryBit) {
  const std::vector<double> doubles = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      FromBits(0x7FF0000000000001ull),  // signalling NaN payload
      FromBits(0xFFF8DEADBEEF0001ull),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min()};

  ByteWriter w;
  w.Put(uint8_t{0xFE});
  w.Put(int32_t{-2});
  for (const double x : doubles) w.Put(x);
  w.Pod(doubles);
  w.Csr(std::vector<uint32_t>{0, 1, 3}, std::vector<int32_t>{7, -8, 9});
  w.String("label");
  const std::string bytes = std::move(w).Take();
  ASSERT_EQ(bytes.size(), 1 + 4 + 2 * 8 * doubles.size() + 3 * 8 + 3 * 4 +
                              4 + 5);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 0xFE);  // -2, little-endian
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 0xFF);

  ByteReader r(bytes);
  uint8_t u8 = 0;
  int32_t i32 = 0;
  ASSERT_TRUE(r.Get(&u8));
  ASSERT_TRUE(r.Get(&i32));
  EXPECT_EQ(u8, 0xFE);
  EXPECT_EQ(i32, -2);
  for (const double x : doubles) {
    double got = 0;
    ASSERT_TRUE(r.Get(&got));
    EXPECT_EQ(Bits(got), Bits(x));
  }
  std::vector<double> pod;
  ASSERT_TRUE(r.Pod(&pod, doubles.size()));
  for (size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(Bits(pod[i]), Bits(doubles[i])) << i;
  }
  std::vector<size_t> offsets;
  std::vector<int32_t> pool;
  ASSERT_TRUE(r.Csr(2, &offsets, &pool));
  EXPECT_EQ(offsets, (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(pool, (std::vector<int32_t>{7, -8, 9}));
  std::string label;
  ASSERT_TRUE(r.String(&label, 16));
  EXPECT_EQ(label, "label");
  EXPECT_EQ(r.Remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

}  // namespace
}  // namespace itspq
