#include "data/io.h"

#include <cstdio>
#include <fstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace cgkgr {
namespace data {

namespace {

Status WriteInteractions(const std::vector<graph::Interaction>& split,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (const auto& x : split) {
    out << x.user << '\t' << x.item << '\n';
  }
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

/// InvalidArgument naming `path` and the 1-based `line` when `id` lies
/// outside [0, count).
Status CheckId(const std::string& path, int64_t line, const char* what,
               int64_t id, int64_t count) {
  if (id >= 0 && id < count) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "%s:%lld: %s %lld out of range [0, %lld) set by meta.tsv",
      path.c_str(), static_cast<long long>(line), what,
      static_cast<long long>(id), static_cast<long long>(count)));
}

Status ReadInteractions(const std::string& path, int64_t num_users,
                        int64_t num_items,
                        std::vector<graph::Interaction>* split) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const auto fields = Split(line, '\t');
    int64_t user = 0;
    int64_t item = 0;
    if (fields.size() != 2 || !ParseInt64(fields[0], &user) ||
        !ParseInt64(fields[1], &item)) {
      return Status::IOError("malformed interaction line in " + path + ": " +
                             line);
    }
    CGKGR_RETURN_NOT_OK(CheckId(path, line_no, "user", user, num_users));
    CGKGR_RETURN_NOT_OK(CheckId(path, line_no, "item", item, num_items));
    split->push_back({user, item});
  }
  return Status::OK();
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& dir) {
  {
    std::ofstream meta(dir + "/meta.tsv");
    if (!meta) return Status::IOError("cannot open " + dir + "/meta.tsv");
    meta << "name\t" << dataset.name << '\n'
         << "num_users\t" << dataset.num_users << '\n'
         << "num_items\t" << dataset.num_items << '\n'
         << "num_entities\t" << dataset.num_entities << '\n'
         << "num_relations\t" << dataset.num_relations << '\n';
    if (!meta) return Status::IOError("write failed: meta.tsv");
  }
  CGKGR_RETURN_NOT_OK(WriteInteractions(dataset.train, dir + "/train.tsv"));
  CGKGR_RETURN_NOT_OK(WriteInteractions(dataset.eval, dir + "/eval.tsv"));
  CGKGR_RETURN_NOT_OK(WriteInteractions(dataset.test, dir + "/test.tsv"));
  std::ofstream kg(dir + "/kg.tsv");
  if (!kg) return Status::IOError("cannot open " + dir + "/kg.tsv");
  for (const auto& t : dataset.kg) {
    kg << t.head << '\t' << t.relation << '\t' << t.tail << '\n';
  }
  return kg ? Status::OK() : Status::IOError("write failed: kg.tsv");
}

Result<Dataset> LoadDataset(const std::string& dir) {
  Dataset dataset;
  {
    std::ifstream meta(dir + "/meta.tsv");
    if (!meta) return Status::IOError("cannot open " + dir + "/meta.tsv");
    std::string line;
    while (std::getline(meta, line)) {
      const auto fields = Split(line, '\t');
      if (fields.size() != 2) continue;
      if (fields[0] == "name") {
        dataset.name = fields[1];
      } else {
        int64_t value = 0;
        if (!ParseInt64(fields[1], &value)) {
          return Status::IOError("malformed meta line: " + line);
        }
        if (fields[0] == "num_users") dataset.num_users = value;
        if (fields[0] == "num_items") dataset.num_items = value;
        if (fields[0] == "num_entities") dataset.num_entities = value;
        if (fields[0] == "num_relations") dataset.num_relations = value;
      }
    }
  }
  const int64_t users = dataset.num_users;
  const int64_t items = dataset.num_items;
  CGKGR_RETURN_NOT_OK(
      ReadInteractions(dir + "/train.tsv", users, items, &dataset.train));
  CGKGR_RETURN_NOT_OK(
      ReadInteractions(dir + "/eval.tsv", users, items, &dataset.eval));
  CGKGR_RETURN_NOT_OK(
      ReadInteractions(dir + "/test.tsv", users, items, &dataset.test));
  const std::string kg_path = dir + "/kg.tsv";
  std::ifstream kg_in(kg_path);
  if (!kg_in) return Status::IOError("cannot open " + kg_path);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(kg_in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const auto fields = Split(line, '\t');
    int64_t head = 0;
    int64_t relation = 0;
    int64_t tail = 0;
    if (fields.size() != 3 || !ParseInt64(fields[0], &head) ||
        !ParseInt64(fields[1], &relation) || !ParseInt64(fields[2], &tail)) {
      return Status::IOError("malformed kg line: " + line);
    }
    CGKGR_RETURN_NOT_OK(
        CheckId(kg_path, line_no, "head", head, dataset.num_entities));
    CGKGR_RETURN_NOT_OK(CheckId(kg_path, line_no, "relation", relation,
                                dataset.num_relations));
    CGKGR_RETURN_NOT_OK(
        CheckId(kg_path, line_no, "tail", tail, dataset.num_entities));
    dataset.kg.push_back({head, relation, tail});
  }
  return dataset;
}

}  // namespace data
}  // namespace cgkgr
