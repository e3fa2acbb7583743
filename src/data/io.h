#ifndef CGKGR_DATA_IO_H_
#define CGKGR_DATA_IO_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace cgkgr {
namespace data {

/// Serializes a dataset to a directory in the common TSV layout used by the
/// KGCN/CKAN reference implementations:
///   <dir>/meta.tsv          name / counts
///   <dir>/train.tsv, eval.tsv, test.tsv   "user \t item" per line
///   <dir>/kg.tsv            "head \t relation \t tail" per line
/// The directory must already exist.
Status SaveDataset(const Dataset& dataset, const std::string& dir);

/// Loads a dataset previously written by SaveDataset. Every user, item,
/// entity and relation ID is checked against the meta.tsv counts; one out
/// of range is InvalidArgument naming the file and the 1-based line.
Result<Dataset> LoadDataset(const std::string& dir);

}  // namespace data
}  // namespace cgkgr

#endif  // CGKGR_DATA_IO_H_
