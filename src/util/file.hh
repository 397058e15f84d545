/**
 * @file
 * Whole-file output through one checked call, so that a full disk
 * is an error naming the path and never a silently short file.
 */

#ifndef UATM_UTIL_FILE_HH
#define UATM_UTIL_FILE_HH

#include <functional>
#include <iosfwd>
#include <string>

#include "util/status.hh"

namespace uatm {

/**
 * Open @p path for writing, truncating it (in binary mode when
 * @p binary), hand the stream to @p write, and close it.  Returns an
 * IoError naming the path when the open, any write or the close
 * fails.
 */
Status writeWholeFile(const std::string &path,
                      const std::function<void(std::ostream &)> &write,
                      bool binary = false);

} // namespace uatm

#endif // UATM_UTIL_FILE_HH
