/**
 * @file
 * Implementation of the checked whole-file writer.
 */

#include "util/file.hh"

#include <fstream>

namespace uatm {

Status
writeWholeFile(const std::string &path,
               const std::function<void(std::ostream &)> &write,
               bool binary)
{
    std::ofstream out(path, binary ? std::ios::out | std::ios::trunc |
                                         std::ios::binary
                                   : std::ios::out | std::ios::trunc);
    if (!out)
        return Status::ioError("cannot open '", path, "' for writing");
    write(out);
    // close() flushes what is still buffered; a flush that fails
    // sets failbit like any failed write before it.
    out.close();
    if (!out)
        return Status::ioError("failed while writing '", path, "'");
    return Status();
}

} // namespace uatm
