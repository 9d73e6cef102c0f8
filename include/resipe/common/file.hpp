// The one checked file writer.  A stream buffers what it is given, so a
// short file's only write can fail when the buffer drains at close (a
// full disk, /dev/full); write_file closes the stream before it checks.
#pragma once

#include <fstream>
#include <string>

#include "resipe/common/error.hpp"

namespace resipe {

/// Opens `path` for writing (truncating it), runs `body` on the stream,
/// closes it and checks it.  Throws resipe::Error reading `cannot open
/// '<path>' for writing` or `write to '<path>' failed` when the file
/// cannot be opened or any write, the flush at close included, fails:
/// the message reaches users as is, so it holds no source location.
/// Bytes are written as given (binary mode).
template <class Body>
void write_file(const std::string& path, Body&& body) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) throw Error("cannot open '" + path + "' for writing");
  body(static_cast<std::ostream&>(os));
  os.close();
  if (!os.good()) throw Error("write to '" + path + "' failed");
}

}  // namespace resipe
