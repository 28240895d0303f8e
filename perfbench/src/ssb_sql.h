#ifndef PERFBENCH_SSB_SQL_H_
#define PERFBENCH_SSB_SQL_H_

#include <string>

namespace perfbench {

/// SQL text of the SSB query named `name` ("Q1.1" ... "Q4.3"), written for
/// the engine's SQL front end. Empty for an unknown name.
const std::string& SsbSql(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SSB_SQL_H_
