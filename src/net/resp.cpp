#include "src/net/resp.hpp"

#include <charconv>
#include <cstring>

namespace lockin {
namespace {

// Parses a non-negative integer (or -1 when allow_minus_one) from [begin,
// end). Returns false on empty/garbage/overflow -- headers like "*abc" or
// "$" must be protocol errors, not zeros.
bool ParseHeaderInt(const char* begin, const char* end, long long* out,
                    bool allow_minus_one) {
  if (begin == end) {
    return false;
  }
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  return *out >= 0 || (allow_minus_one && *out == -1);
}

// Finds '\n' in buffer[from..), returning npos when absent.
std::size_t FindNewline(const std::string& buffer, std::size_t from) {
  const void* hit = std::memchr(buffer.data() + from, '\n', buffer.size() - from);
  if (hit == nullptr) {
    return std::string::npos;
  }
  return static_cast<std::size_t>(static_cast<const char*>(hit) - buffer.data());
}

// Strips one trailing '\r' (lines are CRLF on the wire, but a bare LF is
// tolerated).
std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line;
}

}  // namespace

void RespParser::Feed(std::string_view data) {
  if (broken_) {
    return;  // latched error: drop everything, the connection is closing
  }
  // Compact before growing: once the delivered prefix dominates the buffer,
  // shift the tail down so pipelined streams don't grow it without bound.
  if (consumed_ > 4096 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data);
}

RespParseStatus RespParser::FailWith(std::string* error, const std::string& message) {
  broken_ = true;
  error_ = message;
  buffer_.clear();
  consumed_ = 0;
  if (error != nullptr) {
    *error = message;
  }
  return RespParseStatus::kError;
}

RespParseStatus RespParser::Next(RespCommand* out, std::string* error) {
  if (broken_) {
    if (error != nullptr) {
      *error = error_;
    }
    return RespParseStatus::kError;
  }
  // Loop: `*0` arrays are consumed silently and parsing continues with the
  // next frame.
  for (;;) {
    std::size_t cursor = consumed_;
    if (cursor >= buffer_.size()) {
      return RespParseStatus::kNeedMore;
    }
    // RESP array: *<count>\r\n then count x ($<len>\r\n<payload>\r\n).
    if (buffer_[cursor] != '*') {
      return FailWith(error, "expected array");
    }
    const std::size_t header_end = FindNewline(buffer_, cursor);
    if (header_end == std::string::npos) {
      if (buffer_.size() - cursor > 32) {
        return FailWith(error, "invalid array header (no terminator)");
      }
      return RespParseStatus::kNeedMore;
    }
    const std::string_view count_text =
        StripCr(std::string_view(buffer_).substr(cursor + 1, header_end - cursor - 1));
    long long count = 0;
    if (!ParseHeaderInt(count_text.data(), count_text.data() + count_text.size(), &count,
                        /*allow_minus_one=*/false)) {
      return FailWith(error, "invalid array header");
    }
    if (static_cast<std::size_t>(count) > limits_.max_args) {
      return FailWith(error, "too many arguments");
    }
    cursor = header_end + 1;
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(count));
    for (long long i = 0; i < count; ++i) {
      if (cursor >= buffer_.size()) {
        return RespParseStatus::kNeedMore;
      }
      if (buffer_[cursor] != '$') {
        return FailWith(error, "expected bulk string in array");
      }
      const std::size_t len_end = FindNewline(buffer_, cursor);
      if (len_end == std::string::npos) {
        if (buffer_.size() - cursor > 32) {
          return FailWith(error, "invalid bulk header (no terminator)");
        }
        return RespParseStatus::kNeedMore;
      }
      const std::string_view len_text =
          StripCr(std::string_view(buffer_).substr(cursor + 1, len_end - cursor - 1));
      long long len = 0;
      if (!ParseHeaderInt(len_text.data(), len_text.data() + len_text.size(), &len,
                          /*allow_minus_one=*/false)) {
        return FailWith(error, "invalid bulk length");
      }
      // Rejected from the header alone: the payload is never buffered.
      if (static_cast<std::size_t>(len) > limits_.max_bulk_bytes) {
        return FailWith(error, "bulk string too large");
      }
      const std::size_t payload_start = len_end + 1;
      // Payload + its CRLF (or LF) terminator.
      if (buffer_.size() < payload_start + static_cast<std::size_t>(len) + 1) {
        if (buffer_.size() - consumed_ > limits_.max_command_bytes) {
          return FailWith(error, "command too large");
        }
        return RespParseStatus::kNeedMore;
      }
      std::size_t terminator = payload_start + static_cast<std::size_t>(len);
      std::size_t after = terminator + 1;
      if (buffer_[terminator] == '\r') {
        if (buffer_.size() < after + 1) {
          return RespParseStatus::kNeedMore;
        }
        if (buffer_[after] != '\n') {
          return FailWith(error, "bulk string not terminated");
        }
        ++after;
      } else if (buffer_[terminator] != '\n') {
        return FailWith(error, "bulk string not terminated");
      }
      args.emplace_back(buffer_, payload_start, static_cast<std::size_t>(len));
      cursor = after;
    }
    consumed_ = cursor;
    if (args.empty()) {
      continue;  // *0: legal no-op frame
    }
    out->args = std::move(args);
    return RespParseStatus::kCommand;
  }
}

// --- Reply parser ------------------------------------------------------------

void RespReplyParser::Feed(std::string_view data) {
  if (broken_) {
    return;
  }
  if (consumed_ > 4096 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data);
}

RespParseStatus RespReplyParser::FailWith(std::string* error, const std::string& message) {
  broken_ = true;
  error_ = message;
  buffer_.clear();
  consumed_ = 0;
  if (error != nullptr) {
    *error = message;
  }
  return RespParseStatus::kError;
}

RespParseStatus RespReplyParser::Next(RespReply* out, std::string* error) {
  if (broken_) {
    if (error != nullptr) {
      *error = error_;
    }
    return RespParseStatus::kError;
  }
  const std::size_t cursor = consumed_;
  if (cursor >= buffer_.size()) {
    return RespParseStatus::kNeedMore;
  }
  const char kind = buffer_[cursor];
  const std::size_t line_end = FindNewline(buffer_, cursor);
  if (line_end == std::string::npos) {
    if (buffer_.size() - cursor > limits_.max_inline_bytes) {
      return FailWith(error, "reply line too long");
    }
    return RespParseStatus::kNeedMore;
  }
  const std::string_view line =
      StripCr(std::string_view(buffer_).substr(cursor + 1, line_end - cursor - 1));
  switch (kind) {
    case '+':
      out->type = RespReply::Type::kSimple;
      out->text.assign(line);
      consumed_ = line_end + 1;
      return RespParseStatus::kCommand;
    case '-':
      out->type = RespReply::Type::kError;
      out->text.assign(line);
      consumed_ = line_end + 1;
      return RespParseStatus::kCommand;
    case ':': {
      long long value = 0;
      const bool negative = !line.empty() && line.front() == '-';
      const std::string_view digits = negative ? line.substr(1) : line;
      if (!ParseHeaderInt(digits.data(), digits.data() + digits.size(), &value,
                          /*allow_minus_one=*/false)) {
        return FailWith(error, "invalid integer reply");
      }
      out->type = RespReply::Type::kInteger;
      out->integer = negative ? -value : value;
      out->text.clear();
      consumed_ = line_end + 1;
      return RespParseStatus::kCommand;
    }
    case '$': {
      long long len = 0;
      if (!ParseHeaderInt(line.data(), line.data() + line.size(), &len,
                          /*allow_minus_one=*/true)) {
        return FailWith(error, "invalid bulk reply header");
      }
      if (len == -1) {
        out->type = RespReply::Type::kNil;
        out->text.clear();
        consumed_ = line_end + 1;
        return RespParseStatus::kCommand;
      }
      if (static_cast<std::size_t>(len) > limits_.max_bulk_bytes) {
        return FailWith(error, "bulk reply too large");
      }
      const std::size_t payload_start = line_end + 1;
      if (buffer_.size() < payload_start + static_cast<std::size_t>(len) + 1) {
        return RespParseStatus::kNeedMore;
      }
      std::size_t terminator = payload_start + static_cast<std::size_t>(len);
      std::size_t after = terminator + 1;
      if (buffer_[terminator] == '\r') {
        if (buffer_.size() < after + 1) {
          return RespParseStatus::kNeedMore;
        }
        if (buffer_[after] != '\n') {
          return FailWith(error, "bulk reply not terminated");
        }
        ++after;
      } else if (buffer_[terminator] != '\n') {
        return FailWith(error, "bulk reply not terminated");
      }
      out->type = RespReply::Type::kBulk;
      out->text.assign(buffer_, payload_start, static_cast<std::size_t>(len));
      consumed_ = after;
      return RespParseStatus::kCommand;
    }
    default:
      return FailWith(error, "invalid reply type byte");
  }
}

// --- Encoders ----------------------------------------------------------------

void RespAppendSimple(std::string* out, std::string_view text) {
  out->push_back('+');
  out->append(text);
  out->append("\r\n");
}

void RespAppendError(std::string* out, std::string_view message) {
  out->push_back('-');
  // A reply line must stay one line: defang embedded newlines.
  for (const char ch : message) {
    out->push_back(ch == '\r' || ch == '\n' ? ' ' : ch);
  }
  out->append("\r\n");
}

void RespAppendInteger(std::string* out, long long value) {
  out->push_back(':');
  out->append(std::to_string(value));
  out->append("\r\n");
}

void RespAppendBulk(std::string* out, std::string_view data) {
  out->push_back('$');
  out->append(std::to_string(data.size()));
  out->append("\r\n");
  out->append(data);
  out->append("\r\n");
}

void RespAppendNil(std::string* out) { out->append("$-1\r\n"); }

void RespAppendCommand(std::string* out, const std::vector<std::string>& args) {
  out->push_back('*');
  out->append(std::to_string(args.size()));
  out->append("\r\n");
  for (const std::string& arg : args) {
    RespAppendBulk(out, arg);
  }
}

}  // namespace lockin
