/* minicdcl.c - a small conflict-driven clause-learning SAT solver.
 *
 * Reads DIMACS CNF from the file named by argv[1] (or stdin), prints
 *   s SATISFIABLE   + "v ..." model lines (terminated by 0), exit code 10
 *   s UNSATISFIABLE                                          exit code 20
 *
 * Standard machinery: two watched literals, first-UIP clause learning,
 * activity-driven branching with phase saving, Luby restarts, and
 * activity-based deletion of learned clauses.
 *
 * Build: cc -O2 -o minicdcl minicdcl.c
 */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* literal encoding: variable v in 1..V; literal = 2*(v-1) + (negated?1:0) */
#define POS(v) (((v) - 1) << 1)
#define NEG(v) ((((v) - 1) << 1) | 1)
#define VAR(l) ((l) >> 1)
#define SIGN(l) ((l) & 1)
#define NOT(l) ((l) ^ 1)

typedef struct Clause {
    unsigned size;
    unsigned learned;
    double act;
    int lits[];
} Clause;

typedef struct {
    Clause **data;
    int size, cap;
} CVec;

static void cvec_push(CVec *v, Clause *c)
{
    if (v->size == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 4;
        v->data = realloc(v->data, v->cap * sizeof(Clause *));
        if (!v->data) { fprintf(stderr, "out of memory\n"); exit(1); }
    }
    v->data[v->size++] = c;
}

static int nvars;
static signed char *assigns;   /* per var: 0 undef, 1 true, -1 false */
static signed char *phase;     /* saved polarity, 1 true / -1 false */
static int *level;             /* per var */
static Clause **reason;        /* per var */
static CVec *watches;          /* per literal */
static int *trail, trail_size, qhead;
static int *trail_lim, decision_level;
static double *activity, var_inc = 1.0;
static int *heap, *heap_pos, heap_size; /* max-heap on activity */
static unsigned char *seen;
static CVec clauses, learnts;
static long conflicts_total;

static int value_lit(int l)
{
    int a = assigns[VAR(l)];
    return SIGN(l) ? -a : a;
}

/* ---- binary max-heap keyed by activity ---- */

static void heap_swap(int i, int j)
{
    int vi = heap[i], vj = heap[j];
    heap[i] = vj; heap[j] = vi;
    heap_pos[vj] = i; heap_pos[vi] = j;
}

static void heap_up(int i)
{
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (activity[heap[p]] >= activity[heap[i]]) break;
        heap_swap(p, i);
        i = p;
    }
}

static void heap_down(int i)
{
    for (;;) {
        int l = 2 * i + 1, r = l + 1, m = i;
        if (l < heap_size && activity[heap[l]] > activity[heap[m]]) m = l;
        if (r < heap_size && activity[heap[r]] > activity[heap[m]]) m = r;
        if (m == i) break;
        heap_swap(i, m);
        i = m;
    }
}

static void heap_insert(int v)
{
    if (heap_pos[v] >= 0) return;
    heap_pos[v] = heap_size;
    heap[heap_size++] = v;
    heap_up(heap_size - 1);
}

static int heap_pop(void)
{
    int top = heap[0];
    heap_pos[top] = -1;
    if (--heap_size > 0) {
        heap[0] = heap[heap_size];
        heap_pos[heap[0]] = 0;
        heap_down(0);
    }
    return top;
}

static void var_bump(int v)
{
    activity[v] += var_inc;
    if (activity[v] > 1e100) {
        for (int i = 0; i < nvars; i++) activity[i] *= 1e-100;
        var_inc *= 1e-100;
    }
    if (heap_pos[v] >= 0) heap_up(heap_pos[v]);
}

/* ---- assignment trail ---- */

static void enqueue(int l, Clause *from)
{
    int v = VAR(l);
    assigns[v] = SIGN(l) ? -1 : 1;
    level[v] = decision_level;
    reason[v] = from;
    trail[trail_size++] = l;
}

static void cancel_until(int lvl)
{
    if (decision_level <= lvl) return;
    int bound = trail_lim[lvl];
    for (int i = trail_size - 1; i >= bound; i--) {
        int v = VAR(trail[i]);
        phase[v] = assigns[v];
        assigns[v] = 0;
        reason[v] = NULL;
        heap_insert(v);
    }
    trail_size = bound;
    qhead = bound;
    decision_level = lvl;
}

/* ---- watched-literal propagation ---- */

static Clause *propagate(void)
{
    while (qhead < trail_size) {
        int p = trail[qhead++];
        int fl = NOT(p); /* literal that just became false */
        CVec *wl = &watches[fl];
        int i = 0, j = 0;
        while (i < wl->size) {
            Clause *c = wl->data[i++];
            int *lits = c->lits;
            if (lits[0] == fl) { lits[0] = lits[1]; lits[1] = fl; }
            if (value_lit(lits[0]) == 1) {
                wl->data[j++] = c;
                continue;
            }
            int moved = 0;
            for (unsigned k = 2; k < c->size; k++) {
                if (value_lit(lits[k]) != -1) {
                    lits[1] = lits[k];
                    lits[k] = fl;
                    cvec_push(&watches[lits[1]], c);
                    moved = 1;
                    break;
                }
            }
            if (moved) continue;
            wl->data[j++] = c;
            if (value_lit(lits[0]) == -1) {
                /* conflict: keep the rest of the watch list intact */
                while (i < wl->size) wl->data[j++] = wl->data[i++];
                wl->size = j;
                return c;
            }
            enqueue(lits[0], c);
        }
        wl->size = j;
    }
    return NULL;
}

/* ---- clause construction ---- */

static void watch_clause(Clause *c)
{
    cvec_push(&watches[c->lits[0]], c);
    cvec_push(&watches[c->lits[1]], c);
}

static Clause *make_clause(int *lits, int size, int learned)
{
    Clause *c = malloc(sizeof(Clause) + size * sizeof(int));
    if (!c) { fprintf(stderr, "out of memory\n"); exit(1); }
    c->size = size;
    c->learned = learned;
    c->act = 0.0;
    memcpy(c->lits, lits, size * sizeof(int));
    return c;
}

/* ---- first-UIP conflict analysis ---- */

static int *learnt_buf, learnt_size;

static int analyze(Clause *confl)
{
    /* returns backjump level; learnt clause in learnt_buf[0..learnt_size) */
    int counter = 0, p = -1;
    int index = trail_size - 1;
    learnt_size = 1; /* slot 0 reserved for the asserting literal */
    do {
        int *lits = confl->lits;
        unsigned start = (p == -1) ? 0 : 1;
        if (confl->learned) confl->act += 1.0;
        for (unsigned k = start; k < confl->size; k++) {
            int q = lits[k];
            int v = VAR(q);
            if (!seen[v] && level[v] > 0) {
                seen[v] = 1;
                var_bump(v);
                if (level[v] == decision_level) counter++;
                else learnt_buf[learnt_size++] = q;
            }
        }
        while (!seen[VAR(trail[index])]) index--;
        p = trail[index--];
        confl = reason[VAR(p)];
        seen[VAR(p)] = 0;
        counter--;
        /* when counter hits 0, p is the first UIP */
        if (counter > 0 && confl == NULL) {
            fprintf(stderr, "internal error: missing reason\n");
            exit(1);
        }
    } while (counter > 0);
    learnt_buf[0] = NOT(p);

    int back = 0;
    if (learnt_size > 1) {
        /* put a max-level literal into slot 1 to watch it */
        int mi = 1;
        for (int k = 2; k < learnt_size; k++)
            if (level[VAR(learnt_buf[k])] > level[VAR(learnt_buf[mi])]) mi = k;
        int tmp = learnt_buf[1];
        learnt_buf[1] = learnt_buf[mi];
        learnt_buf[mi] = tmp;
        back = level[VAR(learnt_buf[1])];
    }
    for (int k = 1; k < learnt_size; k++) seen[VAR(learnt_buf[k])] = 0;
    var_inc *= 1.0 / 0.95;
    return back;
}

/* ---- learned-clause housekeeping ---- */

static int locked(Clause *c)
{
    return reason[VAR(c->lits[0])] == c && value_lit(c->lits[0]) == 1;
}

static int cmp_act(const void *a, const void *b)
{
    const Clause *ca = *(Clause *const *)a, *cb = *(Clause *const *)b;
    if (ca->act < cb->act) return -1;
    if (ca->act > cb->act) return 1;
    return 0;
}

static void detach(Clause *c)
{
    for (int s = 0; s < 2; s++) {
        CVec *wl = &watches[c->lits[s]];
        for (int i = 0; i < wl->size; i++)
            if (wl->data[i] == c) {
                wl->data[i] = wl->data[--wl->size];
                break;
            }
    }
}

static void reduce_db(void)
{
    qsort(learnts.data, learnts.size, sizeof(Clause *), cmp_act);
    int keep = learnts.size / 2, j = 0;
    for (int i = 0; i < learnts.size; i++) {
        Clause *c = learnts.data[i];
        if (i < learnts.size - keep && c->size > 2 && !locked(c)) {
            detach(c);
            free(c);
        } else {
            learnts.data[j++] = c;
        }
    }
    learnts.size = j;
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

static int solve(void)
{
    long restart_num = 0;
    for (;;) {
        restart_num++;
        long budget = 128 * luby(restart_num);
        long local = 0;
        for (;;) {
            Clause *confl = propagate();
            if (confl != NULL) {
                conflicts_total++;
                local++;
                if (decision_level == 0) return 20;
                int back = analyze(confl);
                cancel_until(back);
                if (learnt_size == 1) {
                    enqueue(learnt_buf[0], NULL);
                } else {
                    Clause *c = make_clause(learnt_buf, learnt_size, 1);
                    c->act = 1.0;
                    cvec_push(&learnts, c);
                    watch_clause(c);
                    enqueue(learnt_buf[0], c);
                }
            } else {
                if (local >= budget) {
                    cancel_until(0);
                    break; /* restart */
                }
                if (learnts.size > 4000 + 500 * (int)(conflicts_total / 20000))
                    reduce_db();
                int v = -1;
                while (heap_size > 0) {
                    v = heap_pop();
                    if (assigns[v] == 0) break;
                    v = -1;
                }
                if (v == -1) return 10; /* everything assigned, no conflict */
                trail_lim[decision_level++] = trail_size;
                enqueue(phase[v] == 1 ? POS(v + 1) : NEG(v + 1), NULL);
            }
        }
    }
}

/* ---- DIMACS input ---- */

static int *parse_lits;
static int parse_cap, parse_n;

static void parse_push(int l)
{
    if (parse_n == parse_cap) {
        parse_cap = parse_cap ? parse_cap * 2 : 16;
        parse_lits = realloc(parse_lits, parse_cap * sizeof(int));
        if (!parse_lits) { fprintf(stderr, "out of memory\n"); exit(1); }
    }
    parse_lits[parse_n++] = l;
}

int main(int argc, char **argv)
{
    FILE *in = stdin;
    if (argc > 1) {
        in = fopen(argv[1], "r");
        if (!in) {
            fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
    }
    int declared_vars = -1;
    long declared_clauses = -1;
    int c;
    while ((c = fgetc(in)) != EOF) {
        if (c == 'c') {
            while ((c = fgetc(in)) != EOF && c != '\n')
                ;
        } else if (c == 'p') {
            if (fscanf(in, " cnf %d %ld", &declared_vars, &declared_clauses) != 2) {
                fprintf(stderr, "bad problem line\n");
                return 1;
            }
            break;
        } else if (c != ' ' && c != '\n' && c != '\r' && c != '\t') {
            fprintf(stderr, "unexpected character before problem line\n");
            return 1;
        }
    }
    if (declared_vars < 0) {
        fprintf(stderr, "missing problem line\n");
        return 1;
    }
    nvars = declared_vars;

    assigns = calloc(nvars + 1, 1);
    phase = malloc(nvars + 1);
    memset(phase, -1, nvars + 1);
    level = calloc(nvars + 1, sizeof(int));
    reason = calloc(nvars + 1, sizeof(Clause *));
    activity = calloc(nvars + 1, sizeof(double));
    heap = malloc((nvars + 1) * sizeof(int));
    heap_pos = malloc((nvars + 1) * sizeof(int));
    seen = calloc(nvars + 1, 1);
    trail = malloc((nvars + 1) * sizeof(int));
    trail_lim = malloc((nvars + 1) * sizeof(int));
    learnt_buf = malloc((nvars + 1) * sizeof(int));
    watches = calloc(2 * nvars + 2, sizeof(CVec));
    if (!phase || !level || !reason || !activity || !heap || !heap_pos ||
        !seen || !trail || !trail_lim || !learnt_buf || !watches) {
        fprintf(stderr, "out of memory\n");
        return 1;
    }
    for (int v = 0; v < nvars; v++) heap_pos[v] = -1;
    for (int v = 0; v < nvars; v++) heap_insert(v);

    int early_unsat = 0;
    long read_clauses = 0;
    int lit;
    parse_n = 0;
    while (fscanf(in, "%d", &lit) == 1) {
        if (lit != 0) {
            if (lit > nvars || lit < -nvars) {
                fprintf(stderr, "literal out of range\n");
                return 1;
            }
            parse_push(lit > 0 ? POS(lit) : NEG(-lit));
            continue;
        }
        read_clauses++;
        /* normalize: drop duplicates and tautologies */
        int taut = 0, n = 0;
        for (int i = 0; i < parse_n && !taut; i++) {
            int li = parse_lits[i], dup = 0;
            for (int j = 0; j < n; j++) {
                if (parse_lits[j] == li) dup = 1;
                if (parse_lits[j] == NOT(li)) taut = 1;
            }
            if (!dup && !taut) parse_lits[n++] = li;
        }
        if (taut) { parse_n = 0; continue; }
        if (n == 0) {
            early_unsat = 1;
        } else if (n == 1) {
            int val = value_lit(parse_lits[0]);
            if (val == -1) early_unsat = 1;
            else if (val == 0) enqueue(parse_lits[0], NULL);
        } else {
            Clause *cl = make_clause(parse_lits, n, 0);
            cvec_push(&clauses, cl);
            watch_clause(cl);
        }
        parse_n = 0;
    }
    if (parse_n != 0) {
        fprintf(stderr, "unterminated clause\n");
        return 1;
    }
    if (in != stdin) fclose(in);

    int res;
    if (early_unsat || propagate() != NULL) res = 20;
    else res = solve();

    if (res == 10) {
        printf("s SATISFIABLE\n");
        printf("v");
        int col = 1;
        for (int v = 1; v <= nvars; v++) {
            int val = assigns[v - 1];
            int out = (val == 1) ? v : -v; /* unconstrained vars report false */
            char buf[16];
            int len = snprintf(buf, sizeof buf, " %d", out);
            if (col + len > 78) {
                printf("\nv");
                col = 1;
            }
            printf("%s", buf);
            col += len;
        }
        printf(" 0\n");
    } else {
        printf("s UNSATISFIABLE\n");
    }
    fflush(stdout);
    return res;
}
