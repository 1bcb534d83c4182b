// NetServe tests: the RESP codec under adversarial framing (torn at every
// byte boundary, pipelined batches, oversized/garbage/binary input, all
// without allocation blowup), and the full server end-to-end over a real
// loopback socket -- reply correctness per lock, counter
// invariants after shutdown, the backpressure pause and resume for a
// client that stops reading, and the graceful drain path flushing every
// in-flight pipelined reply before EOF.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/net/channel.hpp"
#include "src/net/dispatcher.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/resp.hpp"
#include "src/net/server.hpp"
#include "src/platform/failpoint.hpp"

namespace lockin {
namespace {

// Builds "<prefix><i>" without the operator+ temporaries GCC 12 trips a
// bogus -Wrestrict warning on when inlining into gtest bodies.
std::string NumberedKey(const char* prefix, int i) {
  std::string key(prefix);
  key += std::to_string(i);
  return key;
}

// --- Codec: request parser ---------------------------------------------------

// Feeds `wire` one byte at a time and collects every parsed command --
// incremental parsing must be byte-granularity agnostic.
std::vector<RespCommand> ParseByteByByte(const std::string& wire) {
  RespParser parser;
  std::vector<RespCommand> commands;
  RespCommand command;
  std::string error;
  for (const char byte : wire) {
    parser.Feed(std::string_view(&byte, 1));
    for (;;) {
      const RespParseStatus status = parser.Next(&command, &error);
      if (status == RespParseStatus::kNeedMore) {
        break;
      }
      EXPECT_EQ(status, RespParseStatus::kCommand) << error;
      if (status != RespParseStatus::kCommand) {
        return commands;
      }
      commands.push_back(command);
    }
  }
  return commands;
}

TEST(RespParser, TornFramesAtEveryByteBoundary) {
  const std::string wire =
      "*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$5\r\nhello\r\n"
      "*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n"
      "*1\r\n$4\r\nPING\r\n"
      "*1\r\n$4\r\nQUIT\r\n";
  // Every split point: [0, wire) fed as two chunks, plus the byte-by-byte
  // worst case via ParseByteByByte.
  const std::vector<RespCommand> reference = ParseByteByByte(wire);
  ASSERT_EQ(reference.size(), 4u);
  EXPECT_EQ(reference[0].args, (std::vector<std::string>{"SET", "foo", "hello"}));
  EXPECT_EQ(reference[1].args, (std::vector<std::string>{"GET", "foo"}));
  EXPECT_EQ(reference[2].args, (std::vector<std::string>{"PING"}));
  EXPECT_EQ(reference[3].args, (std::vector<std::string>{"QUIT"}));
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    RespParser parser;
    parser.Feed(std::string_view(wire).substr(0, split));
    std::vector<RespCommand> commands;
    RespCommand command;
    std::string error;
    while (parser.Next(&command, &error) == RespParseStatus::kCommand) {
      commands.push_back(command);
    }
    parser.Feed(std::string_view(wire).substr(split));
    while (parser.Next(&command, &error) == RespParseStatus::kCommand) {
      commands.push_back(command);
    }
    ASSERT_EQ(commands.size(), reference.size()) << "split at " << split;
    for (std::size_t i = 0; i < commands.size(); ++i) {
      EXPECT_EQ(commands[i].args, reference[i].args) << "split at " << split;
    }
  }
}

TEST(RespParser, PipelinedBatchInOneFeed) {
  std::string wire;
  for (int i = 0; i < 100; ++i) {
    RespAppendCommand(&wire, {"SET", NumberedKey("k", i), NumberedKey("v", i)});
  }
  RespParser parser;
  parser.Feed(wire);
  RespCommand command;
  std::string error;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(parser.Next(&command, &error), RespParseStatus::kCommand) << i;
    EXPECT_EQ(command.args[1], NumberedKey("k", i));
  }
  EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kNeedMore);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(RespParser, BinaryArgsWithEmbeddedNulRoundTrip) {
  const std::string key("k\0ey", 4);
  const std::string value("\x00\x01\xff\r\n\x00", 6);
  std::string wire;
  RespAppendCommand(&wire, {"SET", key, value});
  const std::vector<RespCommand> commands = ParseByteByByte(wire);
  ASSERT_EQ(commands.size(), 1u);
  EXPECT_EQ(commands[0].args[1], key);
  EXPECT_EQ(commands[0].args[2], value);
}

TEST(RespParser, OversizedBulkRejectedFromHeaderWithoutBuffering) {
  RespParser parser;
  // The 999999999-byte payload never arrives; the header alone must latch
  // the error with nothing buffered (no allocation blowup).
  parser.Feed("*2\r\n$3\r\nSET\r\n$999999999\r\n");
  RespCommand command;
  std::string error;
  EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kError);
  EXPECT_EQ(error, "bulk string too large");
  EXPECT_TRUE(parser.broken());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  // The error latches: more bytes are dropped, Next keeps failing.
  parser.Feed("PING\r\n");
  EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kError);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(RespParser, GarbageHeadersError) {
  const char* cases[] = {
      "*abc\r\n",            // non-numeric array count
      "*-3\r\n",             // negative array count
      "*2\r\nGET foo\r\n",   // array element that is not a bulk string
      "*1\r\n$abc\r\n",      // non-numeric bulk length
      "$5\r\nhello\r\n",     // bulk string outside an array
      "PING\r\n",            // inline request: not an array
      "\r\n",                // blank line: not an array
      "*1\r\n$3\r\nGETxy",   // payload terminator is neither CR nor LF
  };
  for (const char* wire : cases) {
    RespParser parser;
    parser.Feed(wire);
    RespCommand command;
    std::string error;
    EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kError) << wire;
    EXPECT_TRUE(parser.broken()) << wire;
  }
}

TEST(RespParser, HeaderWithoutTerminatorErrorsOnceImplausible) {
  RespParser parser;
  parser.Feed("*123456789012345678901234567890123456789");  // > 32 bytes, no newline
  RespCommand command;
  std::string error;
  EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kError);
}

TEST(RespParser, LimitsEnforced) {
  {
    RespParser parser;
    parser.Feed("*" + std::to_string(kRespMaxArgs + 1) + "\r\n");
    RespCommand command;
    std::string error;
    EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kError);
    EXPECT_EQ(error, "too many arguments");
  }
  {
    // Reply lines: the client-side parser caps an unterminated line. A
    // line of exactly the cap still waits for its terminator.
    RespReplyParser parser;
    parser.Feed("+" + std::string(kRespMaxReplyLineBytes - 1, 'x'));
    RespReply reply;
    std::string error;
    EXPECT_EQ(parser.Next(&reply, &error), RespParseStatus::kNeedMore);
    parser.Feed("x");  // no newline yet, now one byte over budget
    EXPECT_EQ(parser.Next(&reply, &error), RespParseStatus::kError);
    EXPECT_EQ(error, "reply line too long");
  }
  {
    // Whole-frame cap: an incomplete bulk payload may not buffer without
    // bound even when each header is individually legal. Four complete
    // maximal arguments plus the start of a fifth exceed the frame cap.
    const std::string bulk_header = "$" + std::to_string(kRespMaxBulkBytes) + "\r\n";
    std::string frame = "*5\r\n";
    for (int i = 0; i < 4; ++i) {
      frame += bulk_header;
      frame.append(kRespMaxBulkBytes, 'x');
      frame += "\r\n";
    }
    frame += bulk_header;
    frame.append(1024, 'x');
    ASSERT_GT(frame.size(), kRespMaxCommandBytes);
    RespParser parser;
    parser.Feed(frame);
    RespCommand command;
    std::string error;
    EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kError);
    EXPECT_EQ(error, "command too large");
  }
}

TEST(RespParser, NoOpFramesSkipped) {
  RespParser parser;
  parser.Feed("*0\r\n*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n*0\r\n*0\r\n"
              "*3\r\n$3\r\nset\r\n$3\r\nbar\r\n$3\r\nbaz\r\n*0\r\n");
  RespCommand command;
  std::string error;
  ASSERT_EQ(parser.Next(&command, &error), RespParseStatus::kCommand);
  EXPECT_EQ(command.args, (std::vector<std::string>{"GET", "foo"}));
  ASSERT_EQ(parser.Next(&command, &error), RespParseStatus::kCommand);
  EXPECT_EQ(command.args, (std::vector<std::string>{"set", "bar", "baz"}));
  EXPECT_EQ(parser.Next(&command, &error), RespParseStatus::kNeedMore);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(RespParser, CompactionKeepsPipelinedStreamBounded) {
  RespParser parser;
  std::string frame;
  RespAppendCommand(&frame, {"SET", "key", std::string(512, 'v')});
  RespCommand command;
  std::string error;
  for (int i = 0; i < 1000; ++i) {
    parser.Feed(frame);
    ASSERT_EQ(parser.Next(&command, &error), RespParseStatus::kCommand);
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

// --- Codec: reply parser -----------------------------------------------------

TEST(RespReplyParser, AllReplyTypesTornAtEveryBoundary) {
  std::string wire;
  RespAppendSimple(&wire, "OK");
  RespAppendError(&wire, "ERR wrong type");
  RespAppendInteger(&wire, 42);
  RespAppendInteger(&wire, -7);
  RespAppendBulk(&wire, std::string("he\0llo", 6));
  RespAppendNil(&wire);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    RespReplyParser parser;
    parser.Feed(std::string_view(wire).substr(0, split));
    std::vector<RespReply> replies;
    RespReply reply;
    std::string error;
    while (parser.Next(&reply, &error) == RespParseStatus::kCommand) {
      replies.push_back(reply);
    }
    parser.Feed(std::string_view(wire).substr(split));
    while (parser.Next(&reply, &error) == RespParseStatus::kCommand) {
      replies.push_back(reply);
    }
    ASSERT_EQ(replies.size(), 6u) << "split at " << split;
    EXPECT_EQ(replies[0].type, RespReply::Type::kSimple);
    EXPECT_EQ(replies[0].text, "OK");
    EXPECT_EQ(replies[1].type, RespReply::Type::kError);
    EXPECT_EQ(replies[1].text, "ERR wrong type");
    EXPECT_EQ(replies[2].integer, 42);
    EXPECT_EQ(replies[3].integer, -7);
    EXPECT_EQ(replies[4].type, RespReply::Type::kBulk);
    EXPECT_EQ(replies[4].text, std::string("he\0llo", 6));
    EXPECT_EQ(replies[5].type, RespReply::Type::kNil);
  }
}

TEST(RespReplyParser, InvalidTypeByteErrors) {
  RespReplyParser parser;
  parser.Feed("~wat\r\n");
  RespReply reply;
  std::string error;
  EXPECT_EQ(parser.Next(&reply, &error), RespParseStatus::kError);
}

// --- End-to-end over loopback ------------------------------------------------

// Minimal blocking client for the in-process server.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) : fd_(ConnectLoopback(port)) {
    // A reply that never comes (say, a connection that stays paused) fails
    // the test instead of hanging it until the ctest timeout.
    const timeval timeout{10, 0};
    if (fd_ >= 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    }
  }
  ~TestClient() { Close(); }

  bool ok() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  void SendRaw(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = write(fd_, data.data(), data.size());
      ASSERT_GT(n, 0);
      data.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  void Send(const std::vector<std::string>& args) {
    std::string wire;
    RespAppendCommand(&wire, args);
    SendRaw(wire);
  }

  // Blocking read of the next reply; false on EOF, timeout or protocol error.
  bool ReadReply(RespReply* out) {
    std::string error;
    char buf[4096];
    for (;;) {
      const RespParseStatus status = parser_.Next(out, &error);
      if (status == RespParseStatus::kCommand) {
        return true;
      }
      if (status == RespParseStatus::kError) {
        return false;
      }
      const ssize_t n = read(fd_, buf, sizeof buf);
      if (n <= 0) {
        return false;
      }
      parser_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  // Reads until EOF, collecting every reply.
  std::vector<RespReply> ReadUntilEof() {
    std::vector<RespReply> replies;
    RespReply reply;
    while (ReadReply(&reply)) {
      replies.push_back(reply);
    }
    return replies;
  }

 private:
  int fd_;
  RespReplyParser parser_;
};

std::uint64_t CounterValue(LockServer& server, const std::string& name) {
  return server.metrics().Counter(name).Value();
}

TEST(NetServer, RoundTripAcrossLocks) {
  for (const char* lock : {"MUTEX", "TICKET", "MUTEXEE"}) {
    SCOPED_TRACE(lock);
    NetServerOptions options;
    options.workers = 2;
    options.backend.lock_name = lock;
    LockServer server(options);
    server.Start();
    ASSERT_GT(server.port(), 0);

    TestClient client(server.port());
    ASSERT_TRUE(client.ok());
    // One pipelined burst: SET, GET hit, GET miss, SIZE, DEL, DEL again,
    // PING, STATS.
    std::string burst;
    RespAppendCommand(&burst, {"SET", "alpha", "one"});
    RespAppendCommand(&burst, {"GET", "alpha"});
    RespAppendCommand(&burst, {"GET", "missing"});
    RespAppendCommand(&burst, {"SIZE"});
    RespAppendCommand(&burst, {"DEL", "alpha"});
    RespAppendCommand(&burst, {"DEL", "alpha"});
    RespAppendCommand(&burst, {"ping"});  // verbs are case-insensitive
    RespAppendCommand(&burst, {"STATS"});
    client.SendRaw(burst);

    RespReply reply;
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kSimple);
    EXPECT_EQ(reply.text, "OK");
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kBulk);
    EXPECT_EQ(reply.text, "one");
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kNil);
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kInteger);
    EXPECT_EQ(reply.integer, 1);
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.integer, 1);
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.integer, 0);
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.text, "PONG");
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kBulk);
    EXPECT_NE(reply.text.find("\"net.cmd.set\""), std::string::npos);

    // QUIT: +OK then the server closes.
    client.Send({"QUIT"});
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.text, "OK");
    EXPECT_FALSE(client.ReadReply(&reply));  // EOF
    client.Close();

    server.Drain();
    server.Join();

    // Counter invariants after a quiesced shutdown.
    EXPECT_EQ(CounterValue(server, "net.requests"), 9u);
    EXPECT_EQ(CounterValue(server, "net.replies"), 9u);
    EXPECT_EQ(CounterValue(server, "net.conn.accepted"),
              CounterValue(server, "net.conn.closed"));
    EXPECT_EQ(CounterValue(server, "net.hits") + CounterValue(server, "net.misses"),
              CounterValue(server, "net.cmd.get"));
    EXPECT_EQ(CounterValue(server, "net.cmd.get"), 2u);
    EXPECT_EQ(CounterValue(server, "net.cmd.set"), 1u);
    EXPECT_EQ(CounterValue(server, "net.cmd.del"), 2u);
    EXPECT_EQ(CounterValue(server, "net.cmd.size"), 1u);
    EXPECT_EQ(CounterValue(server, "net.cmd.ping"), 1u);
    EXPECT_EQ(CounterValue(server, "net.cmd.stats"), 1u);
    EXPECT_EQ(CounterValue(server, "net.cmd.quit"), 1u);
    EXPECT_EQ(CounterValue(server, "net.errors"), 0u);
    EXPECT_EQ(CounterValue(server, "net.protocol_errors"), 0u);
  }
}

TEST(NetServer, OnlyTheCacheStoreIsServed) {
  NetServerOptions options;
  options.backend.system = "kvstore";
  try {
    LockServer server(options);
    FAIL() << "a store other than cache was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("'cache'"), std::string::npos) << error.what();
  }
}

TEST(NetServer, AppendAndUnknownVerbsAreUnknownCommands) {
  NetServerOptions options;
  LockServer server(options);
  server.Start();
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  client.Send({"APPEND", "log", "a"});
  client.Send({"FLY", "me"});
  client.Send({"GET", "log"});
  RespReply reply;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kError);
    EXPECT_EQ(reply.text.rfind("ERR unknown command", 0), 0u) << reply.text;
  }
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.type, RespReply::Type::kNil);  // the APPEND stored nothing
  client.Close();
  server.Drain();
  server.Join();
  EXPECT_EQ(CounterValue(server, "net.cmd.unknown"), 2u);
  EXPECT_EQ(CounterValue(server, "net.errors"), 2u);
}

TEST(NetServer, StatsReturnsServerMetricsJson) {
  NetServerOptions options;
  LockServer server(options);
  server.Start();
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  client.Send({"STATS"});
  RespReply reply;
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.type, RespReply::Type::kBulk);
  EXPECT_NE(reply.text.find("\"net.requests\""), std::string::npos);
  client.Close();
  server.Drain();
  server.Join();
}

TEST(NetServer, ProtocolErrorRepliesThenCloses) {
  // A malformed array header, and an inline request (not an array at all).
  for (const char* wire : {"*abc\r\n", "PING\r\n"}) {
    SCOPED_TRACE(wire);
    NetServerOptions options;
    LockServer server(options);
    server.Start();
    TestClient client(server.port());
    ASSERT_TRUE(client.ok());
    client.SendRaw(wire);
    RespReply reply;
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.type, RespReply::Type::kError);
    EXPECT_EQ(reply.text.rfind("ERR protocol error", 0), 0u);
    EXPECT_FALSE(client.ReadReply(&reply));  // EOF after the diagnostic
    client.Close();
    server.Drain();
    server.Join();
    EXPECT_EQ(CounterValue(server, "net.protocol_errors"), 1u);
    EXPECT_EQ(CounterValue(server, "net.requests"), 0u);
  }
}

TEST(NetServer, DrainFlushesEveryInFlightReply) {
  NetServerOptions options;
  LockServer server(options);
  server.Start();
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  // 2 ms per command: the 40-deep pipeline takes ~80 ms to serve, so the
  // Drain below lands while the burst is demonstrably still in flight.
  ScopedFailpoints slow("scenario/op=always~2000000", 1);
  std::string burst;
  for (int i = 0; i < 40; ++i) {
    RespAppendCommand(&burst, {"SET", NumberedKey("k", i), "v"});
  }
  client.SendRaw(burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Drain();
  const std::vector<RespReply> replies = client.ReadUntilEof();
  ASSERT_EQ(replies.size(), 40u);  // nothing lost, then EOF
  for (const RespReply& reply : replies) {
    EXPECT_EQ(reply.text, "OK");
  }
  client.Close();
  server.Join();
  EXPECT_EQ(CounterValue(server, "net.requests"), 40u);
  EXPECT_EQ(CounterValue(server, "net.replies"), 40u);
  EXPECT_EQ(CounterValue(server, "net.conn.accepted"), CounterValue(server, "net.conn.closed"));
}

TEST(NetServer, SlowReaderStopsBeingRead) {
  // Backpressure: once more than Connection::kMaxOutbound bytes of replies
  // wait for a client that reads nothing, the server stops reading that
  // client; once it reads again, every reply arrives whole.
  NetServerOptions options;
  LockServer server(options);
  server.Start();
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());

  // Just under the 1 MiB bulk limit, so a few dozen GET replies are
  // several times what the loopback socket buffers hold.
  std::string value(kRespMaxBulkBytes - 64, '\0');
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>('a' + i % 26);
  }
  client.Send({"SET", "big", value});
  RespReply reply;
  ASSERT_TRUE(client.ReadReply(&reply));
  ASSERT_EQ(reply.text, "OK");

  // One GET per write, a few ms apart, so each lands in its own read and
  // the server can stop reading between two of them.
  constexpr int kGets = 64;
  for (int i = 0; i < kGets; ++i) {
    client.Send({"GET", "big"});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t sent = kGets + 1;  // the GETs and the SET

  // Wait until net.requests has not moved for 300 ms.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  std::uint64_t served = CounterValue(server, "net.requests");
  Clock::time_point last_change = Clock::now();
  while (Clock::now() - last_change < std::chrono::milliseconds(300)) {
    ASSERT_TRUE(Clock::now() < deadline) << "net.requests never settled";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now_served = CounterValue(server, "net.requests");
    if (now_served != served) {
      served = now_served;
      last_change = Clock::now();
    }
  }
  EXPECT_LT(served, sent);

  for (int i = 0; i < kGets; ++i) {
    ASSERT_TRUE(client.ReadReply(&reply)) << "reply " << i;
    ASSERT_EQ(reply.type, RespReply::Type::kBulk) << "reply " << i;
    ASSERT_TRUE(reply.text == value) << "reply " << i << " is not the stored value";
  }
  client.Close();
  server.Drain();
  server.Join();
  EXPECT_EQ(CounterValue(server, "net.requests"), sent);
}

TEST(NetServer, LoadgenDrivesServerInProcess) {
  NetServerOptions options;
  options.workers = 2;
  LockServer server(options);
  server.Start();
  LoadgenOptions load;
  load.port = server.port();
  load.connections = 2;
  load.pipeline = 8;
  load.duration_ms = 200;
  load.threads = 1;
  const LoadgenResult result = RunLoadgen(load);
  EXPECT_GT(result.requests, 0u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency_ns.count(), result.requests);
  const std::string json = result.ToJson();
  EXPECT_NE(json.find("\"requests_per_s\""), std::string::npos);
  server.Drain();
  server.Join();
  EXPECT_EQ(CounterValue(server, "net.requests"), result.requests);
  EXPECT_EQ(CounterValue(server, "net.replies"), result.requests);
}

}  // namespace
}  // namespace lockin
