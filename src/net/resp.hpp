// NetServe wire codec: a RESP-style text protocol for the Scenario API.
//
// Requests are RESP arrays of bulk strings
// (`*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n`, the form every client here emits --
// values may contain any byte, NUL included); a request that does not
// start with `*` is a protocol error. Replies are RESP: `+OK`, `-ERR msg`,
// `:42`, `$5\r\nhello`, `$-1` (nil).
//
// Both parsers here are *incremental*: bytes are fed as they come off the
// socket, in any fragmentation -- a frame torn at every byte boundary, or
// a hundred pipelined frames in one read -- and commands/replies pop out
// exactly when complete. Malformed or oversized input turns the parser
// into a terminal error state *before* the offending payload is buffered
// (a `$999999999` header is rejected from the header alone), so a hostile
// peer cannot blow up allocation; RespLimits bounds every dimension.
#ifndef SRC_NET_RESP_HPP_
#define SRC_NET_RESP_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lockin {

// One parsed request: args[0] is the verb (case preserved; dispatch is
// case-insensitive), the rest its arguments. Values are raw byte strings.
struct RespCommand {
  std::vector<std::string> args;
};

enum class RespParseStatus : std::uint8_t {
  kNeedMore,  // no complete frame buffered yet; feed more bytes
  kCommand,   // *out holds the next command / reply
  kError,     // protocol error; the connection should report it and close
};

// Caps applied while parsing. Exceeding any of them is a protocol error
// raised from the *header* (or from the running line length), never after
// buffering the oversized payload.
struct RespLimits {
  std::size_t max_inline_bytes = 8 * 1024;        // one reply line (RespReplyParser)
  std::size_t max_args = 64;                      // elements per RESP array
  std::size_t max_bulk_bytes = 1 * 1024 * 1024;   // one argument's payload
  std::size_t max_command_bytes = 4 * 1024 * 1024;  // whole buffered frame
};

// Incremental request parser (server side).
class RespParser {
 public:
  explicit RespParser(RespLimits limits = {}) : limits_(limits) {}

  // Appends raw bytes read from the wire. Cheap; parsing happens in Next.
  void Feed(std::string_view data);

  // Pops the next complete command. kCommand fills *out (clearing previous
  // contents); kError fills *error and latches: every later call returns
  // the same error, and further Feed bytes are dropped.
  RespParseStatus Next(RespCommand* out, std::string* error);

  // Bytes buffered but not yet consumed by a complete command.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  bool broken() const { return broken_; }

 private:
  RespParseStatus FailWith(std::string* error, const std::string& message);

  RespLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // parsed-and-delivered prefix of buffer_
  bool broken_ = false;
  std::string error_;
};

// One parsed reply (client side).
struct RespReply {
  enum class Type : std::uint8_t { kSimple, kError, kInteger, kBulk, kNil };
  Type type = Type::kSimple;
  std::string text;        // simple/error/bulk payload
  long long integer = 0;   // kInteger value
};

// Incremental reply parser (client side: loadgen, tests).
class RespReplyParser {
 public:
  explicit RespReplyParser(RespLimits limits = {}) : limits_(limits) {}

  void Feed(std::string_view data);
  RespParseStatus Next(RespReply* out, std::string* error);

  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  RespParseStatus FailWith(std::string* error, const std::string& message);

  RespLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool broken_ = false;
  std::string error_;
};

// --- Reply / request encoders ------------------------------------------------

void RespAppendSimple(std::string* out, std::string_view text);    // +text
void RespAppendError(std::string* out, std::string_view message);  // -message
void RespAppendInteger(std::string* out, long long value);         // :value
void RespAppendBulk(std::string* out, std::string_view data);      // $len CRLF data
void RespAppendNil(std::string* out);                              // $-1

// Client-side request encoder: one RESP array of bulk strings. Round-trips
// through RespParser bit-exactly for any byte content.
void RespAppendCommand(std::string* out, const std::vector<std::string>& args);

}  // namespace lockin

#endif  // SRC_NET_RESP_HPP_
