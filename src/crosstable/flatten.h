#ifndef GREATER_CROSSTABLE_FLATTEN_H_
#define GREATER_CROSSTABLE_FLATTEN_H_

#include <string>

#include "common/status.h"
#include "tabular/table.h"

namespace greater {

/// Direct flattening of two child tables sharing a subject key (paper
/// Sec. 3.3, step 0): for every subject, the cartesian product of its rows
/// in `left` and `right`. Columns: key, then left features, then right
/// features. Feature names must not collide.
///
/// This is the naive baseline the paper criticizes — an engaged subject
/// with a rows on the left and b on the right contributes a*b output rows,
/// so active subjects like Fig. 4's "Yin" dominate the flattened
/// distribution (engaged-subject bias) and the table blows up in size.
/// Subjects present in only one table are dropped (inner join semantics).
Result<Table> DirectFlatten(const Table& left, const Table& right,
                            const std::string& key_column);

/// Number of rows DirectFlatten would produce, without materializing it.
Result<size_t> DirectFlattenRowCount(const Table& left, const Table& right,
                                     const std::string& key_column);

}  // namespace greater

#endif  // GREATER_CROSSTABLE_FLATTEN_H_
