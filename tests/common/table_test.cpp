#include "mdtask/common/table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_paths.h"

namespace mdtask {
namespace {

TEST(TableTest, RenderContainsTitleHeaderAndRows) {
  Table t("My Figure");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  const std::string s = t.render();
  EXPECT_NE(s.find("My Figure"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(TableTest, RejectsColumnMismatch) {
  Table t("x");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TableTest, CsvEscapesCommasAndQuotes) {
  Table t("x");
  t.set_header({"name", "value"});
  t.add_row({"a,b", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(TableTest, FmtBytesUnits) {
  EXPECT_EQ(Table::fmt_bytes(512), "512.00 B");
  EXPECT_EQ(Table::fmt_bytes(2048), "2.00 KiB");
  EXPECT_EQ(Table::fmt_bytes(3.0 * 1024 * 1024), "3.00 MiB");
}

TEST(TableTest, WriteCsvRoundTrip) {
  Table t("x");
  t.set_header({"k", "v"});
  t.add_row({"alpha", "1"});
  const std::string path = unique_temp_path(".csv");
  ASSERT_TRUE(t.write_csv(path).ok());
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "k,v\nalpha,1\n");
  std::remove(path.c_str());
}

TEST(TableTest, WriteCsvToBadPathFails) {
  Table t("x");
  EXPECT_FALSE(t.write_csv("/nonexistent-dir-xyz/file.csv").ok());
}

}  // namespace
}  // namespace mdtask
