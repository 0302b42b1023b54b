// Unit tests for the common utilities: bits, strings, XML parser,
// memory map, sparse memory.
#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/error.h"
#include "common/memmap.h"
#include "common/sparse_mem.h"
#include "common/strutil.h"
#include "common/xml.h"

namespace cabt {
namespace {

TEST(Bits, BitFieldExtractsRanges) {
  EXPECT_EQ(bitField(0xdeadbeef, 0, 8), 0xefu);
  EXPECT_EQ(bitField(0xdeadbeef, 8, 8), 0xbeu);
  EXPECT_EQ(bitField(0xdeadbeef, 28, 4), 0xdu);
  EXPECT_EQ(bitField(0xffffffff, 0, 32), 0xffffffffu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(signExtend(0x7f, 8), 127);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(0xff, 8), -1);
  EXPECT_EQ(signExtend(0xffff, 16), -1);
  EXPECT_EQ(signExtend(0x8000, 16), -32768);
  EXPECT_EQ(signExtend(0x0, 16), 0);
}

TEST(Bits, FitsSignedAndUnsigned) {
  EXPECT_TRUE(fitsSigned(127, 8));
  EXPECT_FALSE(fitsSigned(128, 8));
  EXPECT_TRUE(fitsSigned(-128, 8));
  EXPECT_FALSE(fitsSigned(-129, 8));
  EXPECT_TRUE(fitsUnsigned(255, 8));
  EXPECT_FALSE(fitsUnsigned(256, 8));
}

TEST(Bits, InsertFieldRoundTrips) {
  uint32_t w = 0;
  w = insertField(w, 4, 8, 0xab);
  EXPECT_EQ(bitField(w, 4, 8), 0xabu);
  w = insertField(w, 4, 8, 0x12);
  EXPECT_EQ(bitField(w, 4, 8), 0x12u);
  EXPECT_EQ(bitField(w, 0, 4), 0u);
}

TEST(Bits, PowerOfTwoHelpers) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(48));
  EXPECT_EQ(log2Exact(64), 6u);
  EXPECT_EQ(alignUp(13, 8), 16u);
  EXPECT_EQ(alignUp(16, 8), 16u);
}

TEST(StrUtil, TrimAndSplit) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtil, SplitOperandsHonoursBrackets) {
  const auto ops = splitOperands("d1, [a0]8, d2");
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1], "[a0]8");
}

TEST(StrUtil, ParseIntFormats) {
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-17"), -17);
  EXPECT_EQ(parseInt("0x10"), 16);
  EXPECT_EQ(parseInt("0b101"), 5);
  EXPECT_EQ(parseInt("0xffffffff"), 0xffffffffLL);
  EXPECT_THROW(parseInt("zz"), Error);
  EXPECT_THROW(parseInt(""), Error);
}

TEST(StrUtil, Identifier) {
  EXPECT_TRUE(isIdentifier("_start"));
  EXPECT_TRUE(isIdentifier("loop2"));
  EXPECT_FALSE(isIdentifier("2loop"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("a b"));
}

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = xml::parse(R"(<?xml version="1.0"?>
<!-- comment -->
<processor name="trc32" clock_hz="48000000">
  <pipeline dual_issue="1"/>
  <note>hello &amp; goodbye</note>
</processor>)");
  EXPECT_EQ(root->name(), "processor");
  EXPECT_EQ(root->attr("name"), "trc32");
  EXPECT_EQ(root->intAttr("clock_hz"), 48000000);
  ASSERT_NE(root->child("pipeline"), nullptr);
  EXPECT_EQ(root->child("pipeline")->intAttr("dual_issue"), 1);
  ASSERT_NE(root->child("note"), nullptr);
  EXPECT_NE(root->child("note")->text().find("hello & goodbye"),
            std::string::npos);
}

TEST(Xml, RejectsMalformedDocuments) {
  EXPECT_THROW(xml::parse("<a><b></a>"), Error);
  EXPECT_THROW(xml::parse("<a attr=unquoted/>"), Error);
  EXPECT_THROW(xml::parse("<a/><b/>"), Error);
  EXPECT_THROW(xml::parse("no xml at all"), Error);
}

TEST(Xml, ChildrenNamedReturnsAllInOrder) {
  const auto root = xml::parse("<m><r n='1'/><x/><r n='2'/></m>");
  const auto rs = root->childrenNamed("r");
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0]->attr("n"), "1");
  EXPECT_EQ(rs[1]->attr("n"), "2");
}

TEST(MemMap, FindAndKind) {
  MemoryMap map;
  map.addRegion({"rom", 0x80000000, 0x1000, RegionKind::kRom, 0x80000000});
  map.addRegion({"io", 0xf0000000, 0x100, RegionKind::kIo, 0xf0000000});
  EXPECT_EQ(map.find(0x80000abc)->name, "rom");
  EXPECT_EQ(map.find(0x70000000), nullptr);
  EXPECT_EQ(map.kindOf(0xf0000010), RegionKind::kIo);
  EXPECT_EQ(map.kindOf(0x12345678), RegionKind::kRam);  // unmapped fallback
}

TEST(MemMap, RejectsOverlap) {
  MemoryMap map;
  map.addRegion({"a", 0x1000, 0x100, RegionKind::kRam, 0x1000});
  EXPECT_THROW(
      map.addRegion({"b", 0x10ff, 0x100, RegionKind::kRam, 0x10ff}),
      Error);
}

TEST(MemMap, RemapTranslatesAddresses) {
  MemRegion r{"ram", 0xd0000000, 0x1000, RegionKind::kRam, 0x00800000};
  EXPECT_EQ(r.remap(0xd0000010), 0x00800010u);
}

TEST(SparseMem, ReadsZeroWhenUntouched) {
  SparseMemory mem;
  EXPECT_EQ(mem.read32(0x12345678), 0u);
}

TEST(SparseMem, LittleEndianAccess) {
  SparseMemory mem;
  mem.write32(0x100, 0xdeadbeef);
  EXPECT_EQ(mem.read8(0x100), 0xef);
  EXPECT_EQ(mem.read8(0x103), 0xde);
  EXPECT_EQ(mem.read16(0x102), 0xdead);
}

TEST(SparseMem, CrossPageAccess) {
  SparseMemory mem;
  const uint32_t addr = SparseMemory::kPageSize - 2;
  mem.write32(addr, 0x11223344);
  EXPECT_EQ(mem.read32(addr), 0x11223344u);
}

TEST(SparseMem, WordAccessWrapsTheAddressSpace) {
  SparseMemory mem;
  mem.write32(0xfffffffe, 0x11223344);
  EXPECT_EQ(mem.read8(0xfffffffe), 0x44);
  EXPECT_EQ(mem.read8(0xffffffff), 0x33);
  EXPECT_EQ(mem.read8(0x0), 0x22);
  EXPECT_EQ(mem.read8(0x1), 0x11);
  EXPECT_EQ(mem.read32(0xfffffffe), 0x11223344u);
  EXPECT_EQ(mem.read16(0xffffffff), 0x2233u);
  EXPECT_EQ(mem.touchedPages(),
            (std::vector<uint32_t>{0x0, 0xfffff000}));
}

TEST(SparseMem, SubWordAccessAtTheLastByteOfAPage) {
  const uint32_t last = 2 * SparseMemory::kPageSize - 1;
  SparseMemory mem;
  mem.write8(last, 0xab);
  EXPECT_EQ(mem.read(last, 1), 0xabu);
  EXPECT_EQ(mem.touchedPages(),
            std::vector<uint32_t>{SparseMemory::kPageSize});
  // A halfword there straddles into the next page, which reads as zero
  // until written and is allocated by the write.
  EXPECT_EQ(mem.read16(last), 0x00abu);
  mem.write16(last, 0x1234);
  EXPECT_EQ(mem.read8(last), 0x34);
  EXPECT_EQ(mem.read8(last + 1), 0x12);
  EXPECT_EQ(mem.read16(last), 0x1234u);
  EXPECT_EQ(mem.touchedPages(),
            (std::vector<uint32_t>{SparseMemory::kPageSize,
                                   2 * SparseMemory::kPageSize}));
  // In-page halfword and byte accesses ending on the last byte.
  mem.write16(last - 1, 0xbeef);
  EXPECT_EQ(mem.read16(last - 1), 0xbeefu);
  EXPECT_EQ(mem.read(last - 1, 1), 0xefu);
  EXPECT_EQ(mem.read32(last - 3), 0xbeef0000u);
}

TEST(SparseMem, ContentEqualsIgnoresZeroPages) {
  SparseMemory a;
  SparseMemory b;
  a.write32(0x5000, 0);  // touched but zero
  EXPECT_TRUE(a.contentEquals(b));
  b.write32(0x6000, 7);
  EXPECT_FALSE(a.contentEquals(b));
}

TEST(Error, MacrosThrowWithContext) {
  try {
    CABT_FAIL("value " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value 42"), std::string::npos);
  }
  EXPECT_THROW(CABT_CHECK(false, "nope"), Error);
  EXPECT_NO_THROW(CABT_CHECK(true, "fine"));
}

}  // namespace
}  // namespace cabt
