#!/bin/sh
# Profile the simulator itself (host wall clock, not simulated cycles).
#
# Usage:
#   dev/profile.sh [--shards N] [WORKLOAD ...]
#
# Runs the named workloads (default: the full 55-workload roster, about
# 4,700 samples; a three-workload subset gives only ~150) through the
# benchmark runner, bypassing the cell cache so every cell is simulated,
# and reports where the host time goes:
#
#   * with Linux `perf` installed: `perf record` + `perf report` over the
#     run, giving a per-function profile of the executor;
#   * without `perf` (containers): a line-level profile from a small
#     SIGPROF PC sampler. The script compiles it with `cc` into an
#     LD_PRELOAD shim that takes a sample every millisecond of CPU time,
#     writes each PC relative to the executable's load base (read from
#     /proc/self/maps) and resolves the PCs with `addr2line`. It prints
#     the hottest source files, functions and source lines with their
#     share of all samples; samples outside the executable (libc, the
#     kernel's vDSO) are one "[outside]" row. The per-file table is the
#     one to price a module by: the compiler inlines small functions of
#     one module into another's (Cache, Tlb and Int_table code into
#     Machine.daccess and the step closures), so the per-function table
#     charges their samples to the caller, while the line table keeps
#     each sample's own source file.
#
# --shards N runs the roster across N worker processes (the CI
# configuration). Under perf, -g follows the forked workers; the sampler
# is inherited by the workers (each writes its own file), so either
# report covers the whole worker fleet.
#
# POSIX sh; run from the repo root. Needs cc and addr2line for the
# sampler. Results land under /tmp/tce-profile.
set -eu

shards=1
case "${1:-}" in
--shards)
    shards="${2:?--shards needs a value}"
    shift 2
    ;;
--shards=*)
    shards="${1#--shards=}"
    shift
    ;;
esac
case "$shards" in
'' | *[!0-9]*)
    echo "profile.sh: --shards expects a positive integer, got '$shards'" >&2
    exit 2
    ;;
esac

workloads="$*"
out=/tmp/tce-profile
mkdir -p "$out"

dune build bench/main.exe

exe=_build/default/bench/main.exe

# --shards 1 (the default) runs the roster serially in this process
mode="--shards $shards"

if command -v perf >/dev/null 2>&1; then
    echo "profiling with perf ($mode): ${workloads:-full roster}"
    # shellcheck disable=SC2086  # workload names/mode are intentionally split
    perf record -g -o "$out/perf.data" -- "$exe" bench $mode --no-cache \
        --out "$out/profile_bench.json" $workloads
    perf report -i "$out/perf.data" --stdio | head -60
    echo "full profile: perf report -i $out/perf.data"
    exit 0
fi

for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "profile.sh: neither perf nor $tool is installed" >&2
        exit 1
    fi
done

echo "perf not found; sampling PCs with SIGPROF ($mode): ${workloads:-full roster}"
cat >"$out/pcsample.c" <<'EOF'
/* SIGPROF PC sampler, loaded with LD_PRELOAD. Each sample is the
   interrupted PC minus the executable's load base (0 for a non-PIE
   executable), or ~0 when the PC lies outside the executable. Samples
   are buffered and written as raw 64-bit words to $PCSAMPLE_OUT.<pid>. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP 65536
static uint64_t buf[CAP];
static volatile size_t len;
static int fd = -1;
static pid_t owner;
static uintptr_t lo, hi, base;

static void flush(void) {
  if (len > 0 && write(fd, buf, len * sizeof buf[0]) < 0) { /* dropped */ }
  len = 0;
}

static void on_prof(int sig, siginfo_t *si, void *uc_) {
  ucontext_t *uc = uc_;
  uintptr_t pc;
  (void)sig; (void)si;
#if defined(__x86_64__)
  pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pc = (uintptr_t)uc->uc_mcontext.pc;
#else
  pc = 0;
#endif
  buf[len++] = (pc >= lo && pc < hi) ? (uint64_t)(pc - base) : ~(uint64_t)0;
  if (len == CAP) flush();
}

/* The executable's address range and load base, from /proc/self/maps. */
static int find_exe(void) {
  char exe[4096], line[4096 + 256];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  FILE *maps;
  unsigned char ehdr[18];
  int efd, pie = 1;
  if (n <= 0) return 0;
  exe[n] = '\0';
  efd = open(exe, O_RDONLY);
  if (efd >= 0) {
    /* e_type at offset 16: 2 = ET_EXEC (absolute addresses), 3 = ET_DYN */
    if (read(efd, ehdr, sizeof ehdr) == (ssize_t)sizeof ehdr)
      pie = ehdr[16] != 2;
    close(efd);
  }
  maps = fopen("/proc/self/maps", "r");
  if (maps == NULL) return 0;
  while (fgets(line, sizeof line, maps) != NULL) {
    unsigned long start, end, off;
    char *path = strchr(line, '/');
    if (path == NULL) continue;
    path[strcspn(path, "\n")] = '\0';
    if (strcmp(path, exe) != 0) continue;
    if (sscanf(line, "%lx-%lx %*s %lx", &start, &end, &off) != 3) continue;
    if (lo == 0 || start < lo) { lo = start; base = pie ? start - off : 0; }
    if (end > hi) hi = end;
  }
  fclose(maps);
  return hi > lo;
}

__attribute__((constructor)) static void start(void) {
  const char *prefix = getenv("PCSAMPLE_OUT");
  char path[4096];
  struct sigaction sa;
  struct itimerval it;
  if (prefix == NULL || !find_exe()) return;
  owner = getpid();
  snprintf(path, sizeof path, "%s.%ld", prefix, (long)owner);
  fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000; /* one sample per millisecond of CPU time */
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off;
  /* a forked child that never exec'd must not write its parent's buffer */
  if (fd < 0 || getpid() != owner) return;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  flush();
  close(fd);
}
EOF
cc -O2 -shared -fPIC -o "$out/pcsample.so" "$out/pcsample.c"

rm -f "$out"/pcs.*
# shellcheck disable=SC2086  # workload names/mode are intentionally split
PCSAMPLE_OUT="$out/pcs" LD_PRELOAD="$out/pcsample.so" "$exe" bench $mode \
    --no-cache --out "$out/profile_bench.json" $workloads >"$out/bench.log"

# one "count pc" line per distinct PC
od -An -v -tx8 "$out"/pcs.* | tr -s ' ' '\n' | sed '/^$/d' | sort | uniq -c \
    >"$out/pc_counts.txt"
total=$(awk '{ n += $1 } END { print n + 0 }' "$out/pc_counts.txt")
if [ "$total" -eq 0 ]; then
    echo "profile.sh: no samples were taken (see $out/bench.log)" >&2
    exit 1
fi
# resolve in one addr2line pass (two output lines per PC: function, file:line)
awk '{ print "0x" $2 }' "$out/pc_counts.txt" | addr2line -f -e "$exe" |
    paste -d ' ' "$out/pc_counts.txt" - - |
    awk '$2 == "ffffffffffffffff" { $3 = "[outside]"; $4 = "[outside]" }
         { sub("^/workspace_root/", "", $4); file = $4; sub(":[^:]*$", "", file)
           print $1 "\t" $3 "\t" $4 "\t" file }' \
        >"$out/pc_lines.tsv"

report() { # $1 = column (2 function, 3 source line, 4 source file), $2 = title
    echo
    echo "$2 (share of $total samples):"
    awk -F '\t' -v col="$1" '{ n[$col] += $1 }
        END { for (k in n) print n[k] "\t" k }' "$out/pc_lines.tsv" |
        sort -rn | head -30 |
        awk -F '\t' -v total="$total" \
            '{ printf "  %6.2f%%  %8d  %s\n", 100 * $1 / total, $1, $2 }'
}
report 4 "hottest source files"
report 2 "hottest functions"
report 3 "hottest source lines"
echo
echo "per-PC samples: $out/pc_lines.tsv (count, function, file:line, file)"
