/* minicdcl.c - a small conflict-driven clause-learning SAT solver.
 *
 * One source, two builds.  Compiled once as a position-independent
 * object, it is linked both as a shared library and as an executable:
 *
 *   mc_solve(text, len, seconds, model, model_len, stats)
 *     the library's one entry: parses a DIMACS buffer, searches, and
 *     returns MC_SAT, MC_UNSAT, MC_TIMEOUT or a negative MC_ERR_* code.
 *     All solver state lives in a per-call struct, so calls from several
 *     threads run side by side, and no error ends the calling process.
 *
 *   minicdcl FILE
 *     reads DIMACS CNF from FILE (or stdin), calls mc_solve and prints
 *       c conflicts N / c decisions N / c restarts N
 *       s SATISFIABLE   + "v ..." model lines (terminated by 0), exit code 10
 *       s UNSATISFIABLE                                          exit code 20
 *     or an error message on stderr, exit code 1.
 *
 * Standard machinery: two watched literals, first-UIP clause learning,
 * activity-driven branching with phase saving, Luby restarts, and
 * activity-based deletion of learned clauses.
 *
 * Build: cc -O2 -fPIC -c minicdcl.c
 *        cc -shared -o libminicdcl.so minicdcl.o
 *        cc -o minicdcl minicdcl.o
 */

#define _POSIX_C_SOURCE 200809L

#include <setjmp.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define MC_SAT 10
#define MC_UNSAT 20
#define MC_TIMEOUT 0
#define MC_ERR_NOMEM (-1)
#define MC_ERR_INTERNAL (-2)  /* conflict analysis found no reason */
#define MC_ERR_INPUT (-3)     /* malformed DIMACS, or model_len too small */

/* stats[] slots filled by mc_solve */
#define MC_CONFLICTS 0
#define MC_DECISIONS 1
#define MC_RESTARTS 2
#define MC_NSTATS 3

/* literal encoding: variable v in 1..V; literal = 2*(v-1) + (negated?1:0) */
#define POS(v) (((v) - 1) << 1)
#define NEG(v) ((((v) - 1) << 1) | 1)
#define VAR(l) ((l) >> 1)
#define SIGN(l) ((l) & 1)
#define NOT(l) ((l) ^ 1)

typedef struct Clause {
    unsigned size;
    unsigned learned : 1;
    unsigned pos : 31;           /* index in learnts, set by reduce_db */
    double act;
    int lits[];
} Clause;

typedef struct {
    Clause **data;
    int size, cap;
} CVec;

typedef struct {
    jmp_buf fail;                /* longjmp'd to with an MC_ERR_* code */
    int nvars;
    signed char *assigns;        /* per var: 0 undef, 1 true, -1 false */
    signed char *phase;          /* saved polarity, 1 true / -1 false */
    int *level;                  /* per var */
    Clause **reason;             /* per var */
    CVec *watches;               /* per literal */
    int *trail, trail_size, qhead;
    int *trail_lim, decision_level;
    double *activity, var_inc;
    int *heap, *heap_pos, heap_size; /* max-heap on activity */
    unsigned char *seen;
    CVec clauses, learnts;
    int *learnt_buf, learnt_size;
    int *parse_lits, parse_cap, parse_n;
    long conflicts_total, decisions, restarts;
    int timed;                   /* 1 when deadline applies */
    struct timespec deadline;
} Solver;

static void *checked(Solver *s, void *p)
{
    if (!p) longjmp(s->fail, MC_ERR_NOMEM);
    return p;
}

static void cvec_push(Solver *s, CVec *v, Clause *c)
{
    if (v->size == v->cap) {
        int cap = v->cap ? v->cap * 2 : 4;
        v->data = checked(s, realloc(v->data, cap * sizeof(Clause *)));
        v->cap = cap;
    }
    v->data[v->size++] = c;
}

static int value_lit(const Solver *s, int l)
{
    int a = s->assigns[VAR(l)];
    return SIGN(l) ? -a : a;
}

/* ---- binary max-heap keyed by activity ---- */

static void heap_swap(Solver *s, int i, int j)
{
    int vi = s->heap[i], vj = s->heap[j];
    s->heap[i] = vj; s->heap[j] = vi;
    s->heap_pos[vj] = i; s->heap_pos[vi] = j;
}

static void heap_up(Solver *s, int i)
{
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (s->activity[s->heap[p]] >= s->activity[s->heap[i]]) break;
        heap_swap(s, p, i);
        i = p;
    }
}

static void heap_down(Solver *s, int i)
{
    for (;;) {
        int l = 2 * i + 1, r = l + 1, m = i;
        if (l < s->heap_size && s->activity[s->heap[l]] > s->activity[s->heap[m]]) m = l;
        if (r < s->heap_size && s->activity[s->heap[r]] > s->activity[s->heap[m]]) m = r;
        if (m == i) break;
        heap_swap(s, i, m);
        i = m;
    }
}

static void heap_insert(Solver *s, int v)
{
    if (s->heap_pos[v] >= 0) return;
    s->heap_pos[v] = s->heap_size;
    s->heap[s->heap_size++] = v;
    heap_up(s, s->heap_size - 1);
}

static int heap_pop(Solver *s)
{
    int top = s->heap[0];
    s->heap_pos[top] = -1;
    if (--s->heap_size > 0) {
        s->heap[0] = s->heap[s->heap_size];
        s->heap_pos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return top;
}

static void var_bump(Solver *s, int v)
{
    s->activity[v] += s->var_inc;
    if (s->activity[v] > 1e100) {
        for (int i = 0; i < s->nvars; i++) s->activity[i] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[v] >= 0) heap_up(s, s->heap_pos[v]);
}

/* ---- assignment trail ---- */

static void enqueue(Solver *s, int l, Clause *from)
{
    int v = VAR(l);
    s->assigns[v] = SIGN(l) ? -1 : 1;
    s->level[v] = s->decision_level;
    s->reason[v] = from;
    s->trail[s->trail_size++] = l;
}

static void cancel_until(Solver *s, int lvl)
{
    if (s->decision_level <= lvl) return;
    int bound = s->trail_lim[lvl];
    for (int i = s->trail_size - 1; i >= bound; i--) {
        int v = VAR(s->trail[i]);
        s->phase[v] = s->assigns[v];
        s->assigns[v] = 0;
        s->reason[v] = NULL;
        heap_insert(s, v);
    }
    s->trail_size = bound;
    s->qhead = bound;
    s->decision_level = lvl;
}

/* ---- watched-literal propagation ---- */

static Clause *propagate(Solver *s)
{
    while (s->qhead < s->trail_size) {
        int p = s->trail[s->qhead++];
        int fl = NOT(p); /* literal that just became false */
        CVec *wl = &s->watches[fl];
        int i = 0, j = 0;
        while (i < wl->size) {
            Clause *c = wl->data[i++];
            int *lits = c->lits;
            if (lits[0] == fl) { lits[0] = lits[1]; lits[1] = fl; }
            if (value_lit(s, lits[0]) == 1) {
                wl->data[j++] = c;
                continue;
            }
            int moved = 0;
            for (unsigned k = 2; k < c->size; k++) {
                if (value_lit(s, lits[k]) != -1) {
                    lits[1] = lits[k];
                    lits[k] = fl;
                    cvec_push(s, &s->watches[lits[1]], c);
                    moved = 1;
                    break;
                }
            }
            if (moved) continue;
            wl->data[j++] = c;
            if (value_lit(s, lits[0]) == -1) {
                /* conflict: keep the rest of the watch list intact */
                while (i < wl->size) wl->data[j++] = wl->data[i++];
                wl->size = j;
                return c;
            }
            enqueue(s, lits[0], c);
        }
        wl->size = j;
    }
    return NULL;
}

/* ---- clause construction ---- */

static void watch_clause(Solver *s, Clause *c)
{
    cvec_push(s, &s->watches[c->lits[0]], c);
    cvec_push(s, &s->watches[c->lits[1]], c);
}

static Clause *make_clause(Solver *s, int *lits, int size, int learned)
{
    Clause *c = checked(s, malloc(sizeof(Clause) + size * sizeof(int)));
    c->size = size;
    c->learned = learned;
    c->act = 0.0;
    memcpy(c->lits, lits, size * sizeof(int));
    return c;
}

/* ---- first-UIP conflict analysis ---- */

static int analyze(Solver *s, Clause *confl)
{
    /* returns backjump level; learnt clause in learnt_buf[0..learnt_size) */
    int counter = 0, p = -1;
    int index = s->trail_size - 1;
    int *learnt = s->learnt_buf;
    s->learnt_size = 1; /* slot 0 reserved for the asserting literal */
    do {
        int *lits = confl->lits;
        unsigned start = (p == -1) ? 0 : 1;
        if (confl->learned) confl->act += 1.0;
        for (unsigned k = start; k < confl->size; k++) {
            int q = lits[k];
            int v = VAR(q);
            if (!s->seen[v] && s->level[v] > 0) {
                s->seen[v] = 1;
                var_bump(s, v);
                if (s->level[v] == s->decision_level) counter++;
                else learnt[s->learnt_size++] = q;
            }
        }
        while (!s->seen[VAR(s->trail[index])]) index--;
        p = s->trail[index--];
        confl = s->reason[VAR(p)];
        s->seen[VAR(p)] = 0;
        counter--;
        /* when counter hits 0, p is the first UIP */
        if (counter > 0 && confl == NULL) longjmp(s->fail, MC_ERR_INTERNAL);
    } while (counter > 0);
    learnt[0] = NOT(p);

    int back = 0;
    if (s->learnt_size > 1) {
        /* put a max-level literal into slot 1 to watch it */
        int mi = 1;
        for (int k = 2; k < s->learnt_size; k++)
            if (s->level[VAR(learnt[k])] > s->level[VAR(learnt[mi])]) mi = k;
        int tmp = learnt[1];
        learnt[1] = learnt[mi];
        learnt[mi] = tmp;
        back = s->level[VAR(learnt[1])];
    }
    for (int k = 1; k < s->learnt_size; k++) s->seen[VAR(learnt[k])] = 0;
    s->var_inc *= 1.0 / 0.95;
    return back;
}

/* ---- learned-clause housekeeping ---- */

static int locked(const Solver *s, Clause *c)
{
    return s->reason[VAR(c->lits[0])] == c && value_lit(s, c->lits[0]) == 1;
}

static int cmp_act(const void *a, const void *b)
{
    const Clause *ca = *(Clause *const *)a, *cb = *(Clause *const *)b;
    if (ca->act < cb->act) return -1;
    if (ca->act > cb->act) return 1;
    /* ties keep their order in learnts, whatever qsort the C library has */
    return (ca->pos > cb->pos) - (ca->pos < cb->pos);
}

static void detach(Solver *s, Clause *c)
{
    for (int k = 0; k < 2; k++) {
        CVec *wl = &s->watches[c->lits[k]];
        for (int i = 0; i < wl->size; i++)
            if (wl->data[i] == c) {
                wl->data[i] = wl->data[--wl->size];
                break;
            }
    }
}

static void reduce_db(Solver *s)
{
    CVec *learnts = &s->learnts;
    for (int i = 0; i < learnts->size; i++) learnts->data[i]->pos = i;
    qsort(learnts->data, learnts->size, sizeof(Clause *), cmp_act);
    int keep = learnts->size / 2, j = 0;
    for (int i = 0; i < learnts->size; i++) {
        Clause *c = learnts->data[i];
        if (i < learnts->size - keep && c->size > 2 && !locked(s, c)) {
            detach(s, c);
            free(c);
        } else {
            learnts->data[j++] = c;
        }
    }
    learnts->size = j;
}

/* ---- restarts ---- */

static long luby(long i)
{
    /* the i-th term (1-based) of 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... */
    long k;
    for (k = 1; (1L << k) - 1 < i; k++)
        ;
    while ((1L << k) - 1 != i) {
        i -= (1L << (k - 1)) - 1;
        for (k = 1; (1L << k) - 1 < i; k++)
            ;
    }
    return 1L << (k - 1);
}

/* ---- main search ---- */

static int past_deadline(const Solver *s)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return now.tv_sec > s->deadline.tv_sec ||
           (now.tv_sec == s->deadline.tv_sec && now.tv_nsec >= s->deadline.tv_nsec);
}

static int search(Solver *s)
{
    long restart_num = 0;
    for (;;) {
        restart_num++;
        long budget = 128 * luby(restart_num);
        long local = 0;
        for (;;) {
            Clause *confl = propagate(s);
            if (confl != NULL) {
                s->conflicts_total++;
                local++;
                if (s->decision_level == 0) return MC_UNSAT;
                if (s->timed && past_deadline(s)) return MC_TIMEOUT;
                int back = analyze(s, confl);
                cancel_until(s, back);
                if (s->learnt_size == 1) {
                    enqueue(s, s->learnt_buf[0], NULL);
                } else {
                    Clause *c = make_clause(s, s->learnt_buf, s->learnt_size, 1);
                    c->act = 1.0;
                    cvec_push(s, &s->learnts, c);
                    watch_clause(s, c);
                    enqueue(s, s->learnt_buf[0], c);
                }
            } else {
                if (local >= budget) {
                    cancel_until(s, 0);
                    s->restarts++;
                    break; /* restart */
                }
                if (s->learnts.size > 4000 + 500 * (int)(s->conflicts_total / 20000))
                    reduce_db(s);
                int v = -1;
                while (s->heap_size > 0) {
                    v = heap_pop(s);
                    if (s->assigns[v] == 0) break;
                    v = -1;
                }
                if (v == -1) return MC_SAT; /* everything assigned, no conflict */
                s->decisions++;
                s->trail_lim[s->decision_level++] = s->trail_size;
                enqueue(s, s->phase[v] == 1 ? POS(v + 1) : NEG(v + 1), NULL);
            }
        }
    }
}

/* ---- DIMACS input ---- */

static int is_space(int c)
{
    return c == ' ' || c == '\n' || c == '\r' || c == '\t' || c == '\v' || c == '\f';
}

/* Reads the integer at *pos after skipping blanks, as scanf's %ld would.
 * Returns 0, leaving *pos alone, when no integer starts there. */
static int read_long(const char *text, size_t len, size_t *pos, long *out)
{
    size_t i = *pos;
    while (i < len && is_space((unsigned char)text[i])) i++;
    int neg = 0;
    if (i < len && (text[i] == '-' || text[i] == '+')) neg = text[i++] == '-';
    if (i >= len || text[i] < '0' || text[i] > '9') return 0;
    long v = 0;
    for (; i < len && text[i] >= '0' && text[i] <= '9'; i++)
        if (v <= 1L << 40) v = v * 10 + (text[i] - '0'); /* saturates */
    *out = neg ? -v : v;
    *pos = i;
    return 1;
}

/* Finds the "p cnf V C" line after comments and blank space; returns V
 * and stores C in *clauses, or returns -1 when there is no well-formed
 * problem line.  *pos is left just after it. */
static long read_header(const char *text, size_t len, size_t *pos, long *clauses)
{
    size_t i = 0;
    while (i < len) {
        char c = text[i++];
        if (c == 'c') {
            while (i < len && text[i] != '\n') i++;
        } else if (c == 'p') {
            long vars;
            while (i < len && is_space((unsigned char)text[i])) i++;
            if (len - i < 3 || memcmp(text + i, "cnf", 3) != 0) return -1;
            i += 3;
            if (!read_long(text, len, &i, &vars) ||
                !read_long(text, len, &i, clauses) || vars > 1 << 28)
                return -1;
            *pos = i;
            return vars;
        } else if (!is_space((unsigned char)c)) {
            return -1;
        }
    }
    return -1;
}

static void parse_push(Solver *s, int l)
{
    if (s->parse_n == s->parse_cap) {
        int cap = s->parse_cap ? s->parse_cap * 2 : 16;
        s->parse_lits = checked(s, realloc(s->parse_lits, cap * sizeof(int)));
        s->parse_cap = cap;
    }
    s->parse_lits[s->parse_n++] = l;
}

static void allocate(Solver *s, int nvars)
{
    size_t n = (size_t)nvars + 1;
    s->nvars = nvars;
    s->var_inc = 1.0;
    s->assigns = checked(s, calloc(n, 1));
    s->phase = checked(s, malloc(n));
    memset(s->phase, -1, n);
    s->level = checked(s, calloc(n, sizeof(int)));
    s->reason = checked(s, calloc(n, sizeof(Clause *)));
    s->activity = checked(s, calloc(n, sizeof(double)));
    s->heap = checked(s, malloc(n * sizeof(int)));
    s->heap_pos = checked(s, malloc(n * sizeof(int)));
    s->seen = checked(s, calloc(n, 1));
    s->trail = checked(s, malloc(n * sizeof(int)));
    s->trail_lim = checked(s, malloc(n * sizeof(int)));
    s->learnt_buf = checked(s, malloc(n * sizeof(int)));
    s->watches = checked(s, calloc(2 * n, sizeof(CVec)));
    for (int v = 0; v < nvars; v++) s->heap_pos[v] = -1;
    for (int v = 0; v < nvars; v++) heap_insert(s, v);
}

/* Reads the clauses after the problem line, which must be exactly the
 * declared number, with comment lines allowed between them; returns 1
 * when one of them is already false at level 0. */
static int read_clauses(Solver *s, const char *text, size_t len, size_t pos,
                        long declared)
{
    int early_unsat = 0;
    long lit, read = 0;
    s->parse_n = 0;
    for (;;) {
        while (pos < len && is_space((unsigned char)text[pos])) pos++;
        if (pos == len) break;
        if (text[pos] == 'c') {
            while (pos < len && text[pos] != '\n') pos++;
            continue;
        }
        if (!read_long(text, len, &pos, &lit)) longjmp(s->fail, MC_ERR_INPUT);
        if (lit != 0) {
            if (lit > s->nvars || lit < -s->nvars) longjmp(s->fail, MC_ERR_INPUT);
            parse_push(s, lit > 0 ? POS(lit) : NEG(-lit));
            continue;
        }
        read++;
        /* normalize: drop duplicates and tautologies */
        int *lits = s->parse_lits;
        int taut = 0, n = 0;
        for (int i = 0; i < s->parse_n && !taut; i++) {
            int li = lits[i], dup = 0;
            for (int j = 0; j < n; j++) {
                if (lits[j] == li) dup = 1;
                if (lits[j] == NOT(li)) taut = 1;
            }
            if (!dup && !taut) lits[n++] = li;
        }
        s->parse_n = 0;
        if (taut) continue;
        if (n == 0) {
            early_unsat = 1;
        } else if (n == 1) {
            int val = value_lit(s, lits[0]);
            if (val == -1) early_unsat = 1;
            else if (val == 0) enqueue(s, lits[0], NULL);
        } else {
            Clause *cl = make_clause(s, lits, n, 0);
            cvec_push(s, &s->clauses, cl);
            watch_clause(s, cl);
        }
    }
    if (s->parse_n != 0 || read != declared) longjmp(s->fail, MC_ERR_INPUT);
    return early_unsat;
}

static void release(Solver *s)
{
    for (int i = 0; i < s->clauses.size; i++) free(s->clauses.data[i]);
    for (int i = 0; i < s->learnts.size; i++) free(s->learnts.data[i]);
    free(s->clauses.data);
    free(s->learnts.data);
    if (s->watches)
        for (long l = 0; l < 2 * ((long)s->nvars + 1); l++) free(s->watches[l].data);
    free(s->watches);
    free(s->assigns);
    free(s->phase);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->heap);
    free(s->heap_pos);
    free(s->seen);
    free(s->trail);
    free(s->trail_lim);
    free(s->learnt_buf);
    free(s->parse_lits);
    free(s);
}

/* Solves the DIMACS formula in text[0..len).  seconds < 0 means no time
 * limit.  On MC_SAT, model[v] is 1 or -1 for v = 1..V (unconstrained
 * variables report -1); model must hold V + 1 entries, model_len of them.
 * stats, when not NULL, receives MC_NSTATS counts whatever the outcome. */
int mc_solve(const char *text, size_t len, double seconds,
             signed char *model, size_t model_len, long long *stats)
{
    Solver *s = calloc(1, sizeof *s);
    if (!s) return MC_ERR_NOMEM;
    int res = setjmp(s->fail);
    if (res == 0) {
        size_t pos = 0;
        long clauses, nvars = read_header(text, len, &pos, &clauses);
        if (nvars < 0 || (size_t)nvars >= model_len) longjmp(s->fail, MC_ERR_INPUT);
        if (seconds >= 0) {
            clock_gettime(CLOCK_MONOTONIC, &s->deadline);
            time_t whole = (time_t)seconds;
            long nsec = s->deadline.tv_nsec + (long)((seconds - whole) * 1e9);
            s->deadline.tv_sec += whole + nsec / 1000000000L;
            s->deadline.tv_nsec = nsec % 1000000000L;
            s->timed = 1;
        }
        allocate(s, (int)nvars);
        if (read_clauses(s, text, len, pos, clauses) || propagate(s) != NULL)
            res = MC_UNSAT;
        else res = search(s);
        if (res == MC_SAT)
            for (int v = 1; v <= s->nvars; v++)
                model[v] = s->assigns[v - 1] == 1 ? 1 : -1;
    }
    if (stats) {
        stats[MC_CONFLICTS] = s->conflicts_total;
        stats[MC_DECISIONS] = s->decisions;
        stats[MC_RESTARTS] = s->restarts;
    }
    release(s);
    return res;
}

/* ---- the executable ---- */

static char *read_all(FILE *in, size_t *len)
{
    size_t cap = 1 << 16, n = 0, got;
    char *buf = malloc(cap);
    while (buf && (got = fread(buf + n, 1, cap - n, in)) > 0) {
        n += got;
        if (n == cap) {
            char *grown = realloc(buf, cap *= 2);
            if (!grown) free(buf);
            buf = grown;
        }
    }
    *len = n;
    return buf;
}

int main(int argc, char **argv)
{
    static const char *const errors[] = {
        "out of memory", "internal error: missing reason", "malformed DIMACS input",
    };
    FILE *in = stdin;
    if (argc > 1) {
        in = fopen(argv[1], "r");
        if (!in) {
            fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
    }
    size_t len, pos;
    long clauses;
    char *text = read_all(in, &len);
    if (in != stdin) fclose(in);
    long nvars = text ? read_header(text, len, &pos, &clauses) : -1;
    signed char *model = malloc(nvars > 0 ? nvars + 1 : 1);
    long long stats[MC_NSTATS];
    int res = text && model ? mc_solve(text, len, -1.0, model, nvars + 1, stats)
                            : MC_ERR_NOMEM;
    free(text);
    if (res < 0) {
        free(model);
        fprintf(stderr, "%s\n", errors[-res - 1]);
        return 1;
    }
    printf("c conflicts %lld\nc decisions %lld\nc restarts %lld\n",
           stats[MC_CONFLICTS], stats[MC_DECISIONS], stats[MC_RESTARTS]);
    if (res == MC_SAT) {
        printf("s SATISFIABLE\n");
        printf("v");
        int col = 1;
        for (long v = 1; v <= nvars; v++) {
            char buf[16];
            int n = snprintf(buf, sizeof buf, " %ld", model[v] == 1 ? v : -v);
            if (col + n > 78) {
                printf("\nv");
                col = 1;
            }
            printf("%s", buf);
            col += n;
        }
        printf(" 0\n");
    } else {
        printf("s UNSATISFIABLE\n");
    }
    free(model);
    fflush(stdout);
    return res;
}
