/*
 * A wall-clock sampling profiler to load with LD_PRELOAD, for hosts that
 * have no `perf` and no hardware counters.
 *
 * At load it arms a CLOCK_MONOTONIC POSIX timer that sends SIGPROF to the
 * loading (main) thread every 100 us (10 kHz). The handler records the
 * interrupted instruction pointer and the frame-pointer chain above it,
 * bounded to the main thread's stack, into a buffer allocated up front;
 * it allocates, locks and calls nothing. At exit the samples are written
 * to `sampler.<pid>.samples` in the working directory, next to a copy of
 * `/proc/self/maps` in `sampler.<pid>.maps`, for `scripts/profile.sh` to
 * resolve. Frame pointers exist only in a build with
 * `-C force-frame-pointers=yes`; without them the chains are garbage.
 *
 * Samples file: native-endian u64 words. Word 0 is the number of samples
 * dropped because the buffer was full; then one record per sample: a
 * frame count n, the instruction pointer, and n - 1 return addresses,
 * innermost first.
 *
 * Build: cc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define INTERVAL_NS 100000L
#define MAX_FRAMES 64
/* 48 MiB of words: about 300 s of samples at this program's depth. */
#define CAPACITY_WORDS (6u << 20)

static uint64_t *buf;
static volatile size_t used;
static volatile uint64_t dropped;
static uintptr_t stack_lo, stack_hi;
static timer_t timer;
static int armed;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    const mcontext_t *mc = &((const ucontext_t *)ctx)->uc_mcontext;
    size_t at = used;
    if (at + MAX_FRAMES + 1 > CAPACITY_WORDS) {
        dropped = dropped + 1;
        return;
    }
    uint64_t *rec = buf + at;
    size_t n = 0;
    rec[1 + n++] = (uint64_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t lo = (uintptr_t)mc->gregs[REG_RSP];
    if (lo < stack_lo)
        lo = stack_lo;
    /* Each frame holds the caller's frame pointer, then the return
     * address; a chain that leaves the stack or stops growing ends. */
    while (n < MAX_FRAMES && fp >= lo && fp % 8 == 0 && fp + 16 <= stack_hi) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (ret == 0)
            break;
        rec[1 + n++] = ret;
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    rec[0] = n;
    used = at + 1 + n;
}

__attribute__((constructor)) static void sampler_start(void) {
    pthread_attr_t attr;
    void *addr;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    stack_lo = (uintptr_t)addr;
    stack_hi = stack_lo + size;

    buf = mmap(NULL, CAPACITY_WORDS * sizeof(uint64_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        buf = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        return;
    struct itimerspec its = {{0, INTERVAL_NS}, {0, INTERVAL_NS}};
    armed = timer_settime(timer, 0, &its, NULL) == 0;
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!armed)
        return;
    timer_delete(timer);
    armed = 0;
    char path[64];
    snprintf(path, sizeof path, "sampler.%d.samples", (int)getpid());
    FILE *out = fopen(path, "wb");
    if (out) {
        uint64_t d = dropped;
        fwrite(&d, sizeof d, 1, out);
        fwrite(buf, sizeof(uint64_t), used, out);
        fclose(out);
    }
    snprintf(path, sizeof path, "sampler.%d.maps", (int)getpid());
    FILE *maps = fopen("/proc/self/maps", "r");
    out = fopen(path, "w");
    if (maps && out) {
        char chunk[4096];
        size_t got;
        while ((got = fread(chunk, 1, sizeof chunk, maps)) > 0)
            fwrite(chunk, 1, got, out);
    }
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
}
