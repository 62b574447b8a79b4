/* Compiled trajectory kernel: adaptive RK45 with switching-line events.
 *
 * C twin of ``_kernel_py``; both expose the same ``integrate_return`` entry
 * point and must stay behaviorally identical (the test suite compares them).
 * See ``_kernel_py`` for the field mode and status code conventions.
 *
 * The entry folds the five coefficient vectors, lam and eps once into the
 * two field polynomials p = eps*(f0 + lam*f1) and
 * q = lam*g + eps*(g0 + lam*g1), in the operation order of
 * ``_kernel_py.fold`` (the fold of ``melnikov.fold_to_theorem_form``, with
 * p = lam*fbar and q = lam*gbar); the field evaluates only p and q.
 * Norms are sqrt(x*x + y*y) as in the Python twin; hypot is not bitwise
 * portable.
 *
 * Stepping and event location follow the Python twin, operation for
 * operation: FSAL (stage 7 of an accepted step is the next step's stage 1,
 * and a rejected step reuses stage 1); a crossing's first estimate is the
 * root of the switch coordinate on the DOPRI5 continuous extension (weights
 * d1..d7); Newton substeps on the substep length, each with its own stage 7
 * as dw/dt and kept inside a sign bracket, land on the line; the step size
 * carries across a crossing.
 *
 * Build: python3 setup.py build_ext --inplace   (needs only a C compiler)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define MAXC 64

static const double TRANSVERSAL_GUARD = 1e-8;
static const double MIN_RETURN_TIME = 0.5;
static const int ROOT_ITER = 50;  /* bracketed Newton on the dense output */
static const int LAND_ITER = 60;  /* landing substeps; bisection needs 54 */

/* Dormand-Prince 5(4) tableau.  Row 6 of A5 is the 5th-order weights, so
   stage 7 is the field at the step's end point: the next step's stage 1. */
static const double A5[7][6] = {
    {0, 0, 0, 0, 0, 0},
    {1.0 / 5, 0, 0, 0, 0, 0},
    {3.0 / 40, 9.0 / 40, 0, 0, 0, 0},
    {44.0 / 45, -56.0 / 15, 32.0 / 9, 0, 0, 0},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729, 0, 0},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656, 0},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};
static const double B4[7] = {5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640,
                             -92097.0 / 339200, 187.0 / 2100, 1.0 / 40};
/* dense-output weights d1..d7 of the continuous extension */
static const double D[7] = {-12715105075.0 / 11282082432, 0.0,
                            87487479700.0 / 32700410799,
                            -10690763975.0 / 1880347072,
                            701980252875.0 / 199316789632,
                            -1453857185.0 / 822651844,
                            69997945.0 / 29380423};

/* the folded field polynomials p and q */
typedef struct {
    double p[MAXC], q[MAXC];
    Py_ssize_t np, nq;
} Coeffs;

static double polyval(const double *co, Py_ssize_t n, double x)
{
    double acc = 0.0;
    for (Py_ssize_t i = n - 1; i >= 0; i--)
        acc = acc * x + co[i];
    return acc;
}

static void field(int mode, const Coeffs *co, double x, double y,
                  double side, double *dx, double *dy)
{
    if (mode == 2) {
        /* swapped coordinates: polynomials are functions of y */
        *dx = y + x * polyval(co->p, co->np, y) + side * polyval(co->q, co->nq, y);
        *dy = -x;
    } else {
        *dx = y;
        *dy = -x - y * polyval(co->p, co->np, x) - side * polyval(co->q, co->nq, x);
    }
}

/* One Dormand-Prince step from stage 1 (kx[0], ky[0]); fills the other six
   stages, kx[6], ky[6] being the field at the stored (x5, y5), and returns
   the error norm. */
static double rk_step(int mode, const Coeffs *co, double x, double y,
                      double side, double h, double kx[7], double ky[7],
                      double *xo, double *yo)
{
    double xs = x, ys = y;
    for (int i = 1; i < 7; i++) {
        xs = x;
        ys = y;
        for (int j = 0; j < i; j++) {
            double ha = h * A5[i][j];
            xs += ha * kx[j];
            ys += ha * ky[j];
        }
        field(mode, co, xs, ys, side, &kx[i], &ky[i]);
    }
    double ex = 0.0, ey = 0.0;
    for (int i = 0; i < 7; i++) {
        /* b5 - b4, with b5 row 6 of A5 and a zero for stage 7 */
        double he = h * ((i < 6 ? A5[6][i] : 0.0) - B4[i]);
        ex += he * kx[i];
        ey += he * ky[i];
    }
    *xo = xs;
    *yo = ys;
    return sqrt(ex * ex + ey * ey);
}

/* The theta in (0, 1] where the continuous extension of one coordinate
   vanishes, over a step of length h from w0 to w1 (of opposite signs, or
   w1 == 0) with stages k; see _kernel_py._dense_root. */
static double dense_root(double w0, double w1, const double k[7], double h)
{
    double dw = w1 - w0;
    double c2 = h * k[0] - dw;
    double c3 = dw - h * k[6] - c2;
    double c4 = 0.0;
    for (int j = 0; j < 7; j++)
        c4 += D[j] * k[j];
    c4 *= h;
    double e1 = dw + c2, e2 = c3 + c4 - c2, e3 = -c3 - 2.0 * c4;
    double lo = 0.0, hi = 1.0, th = w0 / (w0 - w1);
    for (int it = 0; it < ROOT_ITER; it++) {
        double v = (((c4 * th + e3) * th + e2) * th + e1) * th + w0;
        if (v == 0.0)
            break;
        if ((v > 0.0) == (w0 > 0.0))
            lo = th;
        else
            hi = th;
        double dv = ((4.0 * c4 * th + 3.0 * e3) * th + 2.0 * e2) * th + e1;
        double nxt = dv != 0.0 ? th - v / dv : lo;
        if (!(lo < nxt && nxt < hi))
            nxt = 0.5 * (lo + hi);
        int done = fabs(nxt - th) <= 1e-14;
        th = nxt;
        if (done)
            break;
    }
    return th;
}

/* Copy one coefficient sequence into dst; returns its length, -1 on error. */
static Py_ssize_t fill(double *dst, PyObject *src)
{
    PyObject *seq = PySequence_Fast(src, "coefficients must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAXC) {
        PyErr_SetString(PyExc_ValueError,
                        "coefficient vector too long for compiled kernel");
        n = -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        dst[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        if (dst[i] == -1.0 && PyErr_Occurred()) {
            n = -1;
            break;
        }
    }
    Py_DECREF(seq);
    return n;
}

static PyObject *finish(int status, double x, double y, double t,
                        PyObject *crossings)
{
    return Py_BuildValue("(idddN)", status, x, y, t, crossings);
}

static PyObject *integrate_return(PyObject *self, PyObject *args,
                                  PyObject *kwargs)
{
    static char *kwlist[] = {"mode", "fa0", "fa1", "fb0", "fb1", "fc", "lam",
                             "eps", "x0", "y0", "rk_tol", "event_tol",
                             "max_steps", "r_min", "r_max", NULL};
    int mode;
    PyObject *src[5];
    double lam, eps, x, y, rk_tol, event_tol, r_min, r_max;
    long max_steps;
    /* f0, f1, g0, g1, g; zero past their lengths */
    double v[5][MAXC] = {{0.0}};
    Py_ssize_t n[5];
    Coeffs co;
    (void)self;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "iOOOOOddddddldd", kwlist, &mode, &src[0], &src[1],
            &src[2], &src[3], &src[4], &lam, &eps, &x, &y, &rk_tol,
            &event_tol, &max_steps, &r_min, &r_max))
        return NULL;
    for (int k = 0; k < 5; k++) {
        n[k] = fill(v[k], src[k]);
        if (n[k] < 0)
            return NULL;
    }
    /* the fold, in the operation order of _kernel_py.fold */
    co.np = n[0] > n[1] ? n[0] : n[1];
    co.nq = n[2] > n[3] ? n[2] : n[3];
    co.nq = n[4] > co.nq ? n[4] : co.nq;
    for (Py_ssize_t i = 0; i < co.np; i++)
        co.p[i] = eps * (v[0][i] + lam * v[1][i]);
    for (Py_ssize_t i = 0; i < co.nq; i++)
        co.q[i] = lam * v[4][i] + eps * (v[2][i] + lam * v[3][i]);
    PyObject *crossings = PyList_New(0);
    if (crossings == NULL)
        return NULL;

    double t = 0.0, h = 0.01, dxv, dyv, kx[7], ky[7];
    /* side-independent switch-variable velocity at the start */
    field(mode, &co, x, y, 0.0, &dxv, &dyv);
    double w0 = mode == 0 ? dyv : dxv;
    if (fabs(w0) < TRANSVERSAL_GUARD)
        return finish(3, x, y, t, crossings);
    double side = w0 > 0 ? 1.0 : -1.0;
    field(mode, &co, x, y, side, &kx[0], &ky[0]);

    for (long steps = 0; steps < max_steps; steps++) {
        double x5, y5;
        double err = rk_step(mode, &co, x, y, side, h, kx, ky, &x5, &y5);
        double tol = rk_tol * (1.0 + sqrt(x * x + y * y));
        if (err > tol) {
            h *= fmax(0.2, 0.9 * pow(tol / err, 0.2));
            continue;
        }
        double w_old = mode == 0 ? y : x;
        double w_new = mode == 0 ? y5 : x5;
        /* w_old == 0 means we are leaving the line after an event (or the
           start point): not a crossing */
        if (w_old != 0.0 && ((w_old > 0.0) != (w_new > 0.0) || w_new == 0.0)) {
            /* start from the root of the dense output, then Newton substeps
               on the substep length, whose dw/dt is each substep's stage 7 */
            double s = h * dense_root(w_old, w_new, mode == 0 ? ky : kx, h);
            double lo = 0.0, hi = h, xe = x5, ye = y5, kxs[7], kys[7];
            kxs[0] = kx[0];
            kys[0] = ky[0];
            for (int it = 0; it < LAND_ITER; it++) {
                double xs, ys;
                rk_step(mode, &co, x, y, side, s, kxs, kys, &xs, &ys);
                double ws = mode == 0 ? ys : xs;
                double vel = mode == 0 ? kys[6] : kxs[6];
                if (fabs(ws) <= event_tol) {
                    hi = s;
                    xe = xs;
                    ye = ys;
                    break;
                }
                if ((ws > 0.0) == (w_old > 0.0)) {
                    lo = s;
                } else {
                    hi = s;
                    xe = xs;
                    ye = ys;
                }
                if (hi - lo <= 1e-16 * fmax(1.0, h))
                    break;
                double nxt = vel != 0.0 ? s - ws / vel : lo;
                s = lo < nxt && nxt < hi ? nxt : 0.5 * (lo + hi);
            }
            t += hi;
            /* land exactly on the line */
            if (mode == 0) {
                x = xe;
                y = 0.0;
            } else {
                x = 0.0;
                y = ye;
            }
            field(mode, &co, x, y, 0.0, &dxv, &dyv);
            double vel = mode == 0 ? dyv : dxv;
            if (fabs(vel) < TRANSVERSAL_GUARD)
                return finish(3, x, y, t, crossings);
            side = vel > 0 ? 1.0 : -1.0;
            PyObject *event = Py_BuildValue("(dddd)", t, x, y, side);
            if (event == NULL || PyList_Append(crossings, event) < 0) {
                Py_XDECREF(event);
                Py_DECREF(crossings);
                return NULL;
            }
            Py_DECREF(event);
            double r = sqrt(x * x + y * y);
            if (r < r_min || r > r_max)
                return finish(1, x, y, t, crossings);
            if (t > MIN_RETURN_TIME && (mode == 0 ? x > 0.0 : y > 0.0))
                return finish(0, x, y, t, crossings);
            /* the next step starts on the new side with the same h */
            field(mode, &co, x, y, side, &kx[0], &ky[0]);
            continue;
        }
        x = x5;
        y = y5;
        kx[0] = kx[6];
        ky[0] = ky[6];
        t += h;
        double r = sqrt(x * x + y * y);
        if (r < r_min || r > r_max)
            return finish(1, x, y, t, crossings);
        if (err > 0.0)
            h *= fmin(5.0, 0.9 * pow(tol / err, 0.2));
        else
            h *= 5.0;
    }
    return finish(2, x, y, t, crossings);
}

static PyMethodDef methods[] = {
    {"integrate_return", (PyCFunction)(void (*)(void))integrate_return,
     METH_VARARGS | METH_KEYWORDS,
     "integrate_return(mode, fa0, fa1, fb0, fb1, fc, lam, eps, x0, y0, rk_tol,"
     " event_tol, max_steps, r_min, r_max)\n--\n\n"
     "Integrate from a section point to its first full return.\n\n"
     "Returns (status, x, y, t, crossings); see the Python twin for details."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "pwlienard._kernel_c",
    "Compiled trajectory kernel: adaptive RK45 with switching-line events.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
