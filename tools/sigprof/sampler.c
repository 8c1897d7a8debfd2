/*
 * sigprof sampler: a statistical CPU profiler loaded with LD_PRELOAD.
 *
 *     gcc -O2 -shared -fPIC -o sigprof.so tools/sigprof/sampler.c
 *     LD_PRELOAD=$PWD/sigprof.so ./target-fp/release/webdep measure small
 *
 * ITIMER_PROF raises SIGPROF as the process burns CPU; the handler records
 * the interrupted thread's id, a timestamp, its instruction pointer and its
 * return addresses, following the RBP frame chain of a binary built with
 * frame pointers. When the interrupted code is outside the executable
 * (glibc keeps no frame pointers) the handler scans at most SCAN_WORDS
 * stack words for a return address into the executable's text, then picks
 * the frame chain up from there. Stack words are read through one
 * process_vm_readv copy of the stack window above the stack pointer, so a
 * frame pointer that leads off the stack ends the walk instead of faulting.
 *
 * At exit the samples and /proc/self/maps are written to
 * sigprof.<pid>.txt in the working directory; report.py symbolizes them.
 * x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_ROWS (1 << 16)
#define MAX_FRAMES 96
/* Words scanned for the first return address into the executable. */
#define SCAN_WORDS 160
/* Bytes of stack copied above the stack pointer per sample. */
#define WINDOW (128 * 1024)
#define PAGE 4096
/* Requested timer period; the kernel rounds it up to its tick (4 ms at HZ=250). */
#define INTERVAL_US 1000

struct row {
    int32_t tid;
    uint32_t nframes;
    uint64_t ns;
    uint64_t frames[MAX_FRAMES];
};

static struct row *rows;
static uint32_t nrows;
static uint32_t busy_drops;
static uint64_t text_lo, text_hi;
static char exe_path[4096];

/* Stack copies in flight at once; a sample that finds every window taken
 * keeps only its instruction pointer. */
#define WINDOWS 4
static int window_busy[WINDOWS];
static unsigned char windows[WINDOWS][WINDOW];

static int in_text(uint64_t a) { return a >= text_lo && a < text_hi; }

/* Copies the readable part of [lo, lo + WINDOW) into `window`, one iovec
 * per page so the copy stops at the first unmapped page. */
static uint64_t copy_window(unsigned char *window, uint64_t lo) {
    struct iovec local[WINDOW / PAGE + 1], remote[WINDOW / PAGE + 1];
    uint64_t at = lo, end = lo + WINDOW;
    int n = 0;
    while (at < end) {
        uint64_t next = (at / PAGE + 1) * PAGE;
        if (next > end) next = end;
        local[n].iov_base = window + (at - lo);
        local[n].iov_len = next - at;
        remote[n].iov_base = (void *)at;
        remote[n].iov_len = next - at;
        n++;
        at = next;
    }
    ssize_t got = syscall(SYS_process_vm_readv, getpid(), local, n, remote, n, 0);
    return got > 0 ? (uint64_t)got : 0;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    uint32_t slot = __atomic_fetch_add(&nrows, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_ROWS) goto out;
    struct row *r = &rows[slot];
    ucontext_t *uc = ctx;
    uint64_t rip = uc->uc_mcontext.gregs[REG_RIP];
    uint64_t rsp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    r->tid = (int32_t)syscall(SYS_gettid);
    r->ns = (uint64_t)ts.tv_sec * 1000000000u + (uint64_t)ts.tv_nsec;
    r->frames[0] = rip;
    r->nframes = 1;
    int w = 0;
    while (w < WINDOWS && __atomic_exchange_n(&window_busy[w], 1, __ATOMIC_ACQUIRE)) w++;
    if (w == WINDOWS) {
        __atomic_fetch_add(&busy_drops, 1, __ATOMIC_RELAXED);
        goto out;
    }
    unsigned char *window = windows[w];
    uint64_t lo = rsp, hi = rsp + copy_window(window, rsp);
#define WORD(a) (*(uint64_t *)(window + ((a) - lo)))
#define FRAME_OK(p) ((p) >= lo && (p) + 16 <= hi && ((p) & 7) == 0 && in_text(WORD((p) + 8)))
    if (!in_text(rip) || !FRAME_OK(fp)) {
        /* No usable frame pointer: find the executable's innermost return
         * address, then the first frame record (saved RBP, return address)
         * above it. */
        fp = 0;
        uint64_t scan_end = lo + 8 * SCAN_WORDS;
        if (scan_end > hi) scan_end = hi;
        for (uint64_t p = lo; p + 8 <= scan_end; p += 8) {
            if (!in_text(WORD(p))) continue;
            r->frames[r->nframes++] = WORD(p);
            for (uint64_t q = p + 8; q + 16 <= scan_end; q += 8) {
                uint64_t saved = WORD(q);
                if (saved > q && saved < hi && FRAME_OK(q)) {
                    fp = q;
                    break;
                }
            }
            break;
        }
    }
    while (fp && r->nframes < MAX_FRAMES && FRAME_OK(fp)) {
        r->frames[r->nframes++] = WORD(fp + 8);
        uint64_t next = WORD(fp);
        if (next <= fp) break;
        fp = next;
    }
#undef FRAME_OK
#undef WORD
    __atomic_store_n(&window_busy[w], 0, __ATOMIC_RELEASE);
out:
    errno = saved_errno;
}

/* The executable's text: the executable mappings of /proc/self/exe. */
static void find_text(void) {
    ssize_t n = readlink("/proc/self/exe", exe_path, sizeof exe_path - 1);
    if (n <= 0) return;
    exe_path[n] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps) return;
    char line[4608];
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8];
        int path_at = 0;
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %n", &lo, &hi, perms, &path_at) < 3) continue;
        line[strcspn(line, "\n")] = 0;
        if (perms[2] != 'x' || strcmp(line + path_at, exe_path) != 0) continue;
        if (!text_lo || lo < text_lo) text_lo = lo;
        if (hi > text_hi) text_hi = hi;
    }
    fclose(maps);
}

__attribute__((constructor)) static void sigprof_start(void) {
    rows = mmap(NULL, sizeof(struct row) * MAX_ROWS, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (rows == MAP_FAILED) {
        rows = NULL;
        return;
    }
    find_text();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sigprof_dump(void) {
    if (!rows) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    char path[64];
    snprintf(path, sizeof path, "sigprof.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    uint32_t n = nrows < MAX_ROWS ? nrows : MAX_ROWS;
    fprintf(out, "# sigprof exe=%s text=%lx-%lx samples=%u lost=%u busy=%u\n", exe_path,
            (unsigned long)text_lo, (unsigned long)text_hi, n, nrows - n, busy_drops);
    for (uint32_t i = 0; i < n; i++) {
        fprintf(out, "S %d %lu", rows[i].tid, (unsigned long)rows[i].ns);
        for (uint32_t k = 0; k < rows[i].nframes; k++)
            fprintf(out, " %lx", (unsigned long)rows[i].frames[k]);
        fputc('\n', out);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4608];
        while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
        fclose(maps);
    }
    fclose(out);
}
