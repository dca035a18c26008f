//===- Daemon.cpp - spawn and talk to an ltp-serve daemon -----------------===//

#include "Daemon.h"

#include "Common.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ; // NOLINT(readability-redundant-declaration)

using namespace perfbench;

Connection::Connection(const std::string &SocketPath) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Connection::roundTrip(const std::string &Line, std::string &Reply) {
  if (Fd < 0)
    return false;
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  size_t Pos;
  while ((Pos = Buffer.find('\n')) == std::string::npos) {
    char Chunk[8192];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
  Reply.assign(Buffer, 0, Pos);
  Buffer.erase(0, Pos + 1);
  return true;
}

bool Daemon::start(const std::string &Binary, const std::string &Socket,
                   const std::string &StoreDir) {
  SocketName = Socket;
  ::unlink(SocketName.c_str());

  // Everything the child needs is prepared before fork: only
  // async-signal-safe calls may run between fork and exec in a
  // multi-threaded parent.
  std::vector<std::string> ArgStore = {Binary, "--socket", SocketName};
  const std::string StoreVar = "LTP_JIT_CACHE_DIR=";
  std::vector<std::string> EnvStore;
  for (char **E = environ; *E; ++E)
    if (std::string(*E).compare(0, StoreVar.size(), StoreVar) != 0)
      EnvStore.push_back(*E);
  EnvStore.push_back(StoreVar + StoreDir);
  std::vector<char *> Argv, Envp;
  for (std::string &A : ArgStore)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  for (std::string &E : EnvStore)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);
  std::string LogPath = SocketName + ".log";
  pid_t Parent = ::getpid();

  pid_t Child = ::fork();
  if (Child < 0)
    return false;
  if (Child == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    int Null = ::open("/dev/null", O_RDWR);
    int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Null >= 0) {
      ::dup2(Null, 0);
      ::dup2(Null, 1);
    }
    if (Log >= 0)
      ::dup2(Log, 2);
    ::execve(Argv[0], Argv.data(), Envp.data());
    ::_exit(127);
  }
  Pid = Child;
  return true;
}

bool Daemon::waitReady(double TimeoutSeconds) {
  double Deadline = nowSeconds() + TimeoutSeconds;
  while (nowSeconds() < Deadline) {
    int Status = 0;
    if (Pid < 0 || ::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return false;
    }
    Connection C(SocketName);
    std::string Reply;
    if (C.valid() && C.roundTrip("{\"op\": \"ping\"}", Reply))
      return Reply.find("\"ok\": true") != std::string::npos;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return false;
}

bool Daemon::request(const std::string &Line, std::string &Reply) {
  Connection C(SocketName);
  return C.valid() && C.roundTrip(Line, Reply);
}

void Daemon::stop() {
  if (Pid > 0) {
    std::string Reply;
    request("{\"op\": \"shutdown\"}", Reply);
    double Deadline = nowSeconds() + 10.0;
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (nowSeconds() > Deadline) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
  }
  if (!SocketName.empty())
    ::unlink(SocketName.c_str());
}

Daemon::~Daemon() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
  if (!SocketName.empty())
    ::unlink(SocketName.c_str());
}

double perfbench::timeDaemonStartup(const std::string &Binary,
                                    const std::string &SocketName,
                                    const std::string &StoreDir) {
  Daemon D;
  double Start = nowSeconds();
  if (!D.start(Binary, SocketName, StoreDir) || !D.waitReady(30.0))
    return -1.0;
  double Seconds = nowSeconds() - Start;
  D.stop();
  return Seconds;
}
