#include "catalog/catalog.h"

namespace paradise::catalog {

Status Catalog::CreateTable(TableDef def) {
  if (tables_.contains(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  tables_.emplace(def.name, std::move(def));
  return Status::OK();
}

StatusOr<TableDef*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return &it->second;
}

const TableDef* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) return Status::NotFound("table " + name);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

}  // namespace paradise::catalog
