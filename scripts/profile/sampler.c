/*
 * A sampling profiler small enough to preload into any process:
 *
 *   VL_PROF_OUT=/tmp/run LD_PRELOAD=libvlsampler.so ./program
 *
 * Every millisecond of CPU time the process uses (ITIMER_PROF), the
 * thread that used it takes a SIGPROF and records its call stack: the
 * interrupted instruction, then the return addresses glibc's
 * backtrace() unwinds from the signal frame. At exit the samples are
 * written to $VL_PROF_OUT.<pid> as ELF-relative addresses, one sample
 * per line, after a header naming each loaded object; scripts/profile.sh
 * turns them into symbols with addr2line. Where the kernel's tick is
 * longer than a millisecond, the tick sets the rate (about 250 samples
 * a second at 4 ms).
 *
 * The handler allocates nothing: samples go to a buffer mapped at
 * start-up, and backtrace() is called once beforehand so that loading
 * the unwinder happens outside any signal. Samples past the buffer's
 * end are counted and dropped.
 *
 * backtrace() is not async-signal-safe. On a glibc without the
 * lock-free _dl_find_object (before 2.35) the unwinder takes the
 * loader's lock through dl_iterate_phdr, so a sample that lands while
 * the thread itself holds that lock (in dlopen, in TLS set-up, or in a
 * Rust backtrace) can deadlock the profiled run. A run that hangs
 * under the sampler and not without it has most likely hit this.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 48
#define MAX_SAMPLES (1 << 17)

struct sample {
    uint32_t frames;
    /* pc[0] is the interrupted instruction; the rest are return addresses. */
    uintptr_t pc[MAX_FRAMES];
};

static struct sample *samples;
static uint32_t taken;
static uint32_t dropped;
static int armed;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    uint32_t i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    struct sample *s = &samples[i];
    uintptr_t pc = (uintptr_t)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    void *stack[MAX_FRAMES + 4];
    int n = backtrace(stack, MAX_FRAMES + 4);
    /* The unwind passes through this handler and the signal trampoline
     * before it reaches the interrupted frame; skip to just past it. */
    int k = 0;
    while (k < n && (uintptr_t)stack[k] != pc)
        k++;
    s->pc[0] = pc;
    uint32_t frames = 1;
    for (k++; k < n && frames < MAX_FRAMES; k++)
        s->pc[frames++] = (uintptr_t)stack[k];
    s->frames = frames;
}

struct object {
    char path[4096];
    uintptr_t bias;
    uintptr_t lo, hi;
};

#define MAX_OBJECTS 256
static struct object objects[MAX_OBJECTS];
static int n_objects;

static int note_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    if (n_objects == MAX_OBJECTS)
        return 1;
    struct object *o = &objects[n_objects];
    if (info->dlpi_name[0] == '\0') {
        ssize_t len = readlink("/proc/self/exe", o->path, sizeof o->path - 1);
        o->path[len > 0 ? len : 0] = '\0';
    } else {
        snprintf(o->path, sizeof o->path, "%s", info->dlpi_name);
    }
    o->bias = info->dlpi_addr;
    o->lo = UINTPTR_MAX;
    o->hi = 0;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD)
            continue;
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (lo < o->lo)
            o->lo = lo;
        if (lo + ph->p_memsz > o->hi)
            o->hi = lo + ph->p_memsz;
    }
    if (o->path[0] != '\0' && o->lo < o->hi)
        n_objects++;
    return 0;
}

/* Writes pc as `<object>:<address within its ELF file>`, or `?:<pc>`. */
static void put_frame(FILE *f, uintptr_t pc) {
    for (int i = 0; i < n_objects; i++) {
        if (pc >= objects[i].lo && pc < objects[i].hi) {
            fprintf(f, " %d:%lx", i, (unsigned long)(pc - objects[i].bias));
            return;
        }
    }
    fprintf(f, " ?:%lx", (unsigned long)pc);
}

__attribute__((constructor)) static void start(void) {
    const char *out = getenv("VL_PROF_OUT");
    if (out == NULL || out[0] == '\0')
        return;
    samples = mmap(NULL, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED)
        return;
    void *prime[4];
    backtrace(prime, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    armed = 1;
}

__attribute__((destructor)) static void finish(void) {
    if (!armed)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    dl_iterate_phdr(note_object, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("VL_PROF_OUT"), (int)getpid());
    FILE *f = fopen(path, "w");
    if (f == NULL)
        return;
    uint32_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(f, "# samples %u dropped %u\n", n, dropped);
    for (int i = 0; i < n_objects; i++)
        fprintf(f, "# object %d %s\n", i, objects[i].path);
    for (uint32_t i = 0; i < n; i++) {
        for (uint32_t j = 0; j < samples[i].frames; j++)
            put_frame(f, samples[i].pc[j]);
        fputc('\n', f);
    }
    fclose(f);
}
