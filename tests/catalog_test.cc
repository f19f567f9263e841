#include <gtest/gtest.h>

#include "catalog/catalog.h"

namespace paradise::catalog {
namespace {

TableDef MakeDef(const std::string& name) {
  TableDef def;
  def.name = name;
  def.schema = exec::Schema({{"id", exec::ValueType::kString},
                             {"shape", exec::ValueType::kPolygon}});
  def.partitioning = PartitioningKind::kSpatial;
  def.partition_column = 1;
  def.indexes = {IndexDef{"id_idx", 0, false}, IndexDef{"shape_idx", 1, true}};
  return def;
}

TEST(CatalogTest, FindIndexOn) {
  TableDef def = MakeDef("t");
  EXPECT_NE(def.FindIndexOn(0, false), nullptr);
  EXPECT_EQ(def.FindIndexOn(0, true), nullptr);   // no spatial index on id
  EXPECT_NE(def.FindIndexOn(1, true), nullptr);
  EXPECT_EQ(def.FindIndexOn(1, false), nullptr);
  EXPECT_EQ(def.FindIndexOn(7, false), nullptr);  // no such column
}

}  // namespace
}  // namespace paradise::catalog
