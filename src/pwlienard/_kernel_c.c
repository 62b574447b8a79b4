/* Compiled trajectory kernel: adaptive RK45 in the polar angle.
 *
 * C twin of ``_kernel_py``; both expose the same ``integrate_return`` entry
 * point and must stay behaviorally identical (the test suite compares them).
 * See ``_kernel_py`` for the field modes, the arc form and the status codes.
 *
 * The entry folds the five coefficient vectors, lam and eps once into the
 * two field polynomials p = eps*(f0 + lam*f1) and
 * q = lam*g + eps*(g0 + lam*g1), in the operation order of
 * ``_kernel_py.fold`` (the fold of ``melnikov.fold_to_theorem_form``, with
 * p = lam*fbar and q = lam*gbar); the field evaluates only p and q.
 *
 * Stepping follows the Python twin, operation for operation: phi is the
 * independent variable, and (r, t) the state; x = r cos(phi),
 * y = -r sin(phi), with cos and sin from libm as in CPython's math.  A
 * return is two arcs of length pi, each with a fixed side and its last step
 * clipped to the arc's end; FSAL (stage 7 of an accepted step is the next
 * step's stage 1, and a rejected step reuses stage 1); the error estimate is
 * on r alone.  The first step is pi/16; the step after a rejection may not
 * grow h; where the rest of an arc lies between h and 2h, half of it is
 * stepped; the step size carries across the switch.  A trial stage below
 * the guard rejects its step, retried at a fifth of its length; status 3
 * comes only from stage 1 below the guard or from h falling below H_FLOOR.
 *
 * The field evaluates p, and q multiplied by the arc's side (qs, set once
 * per arc), by Horner from the top degree down, as the Python twin's
 * descending tuples do.
 *
 * Build: python3 setup.py build_ext --inplace   (needs only a C compiler)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define MAXC 64

static const double TRANSVERSAL_GUARD = 1e-8;
static const double PI = 3.141592653589793;  /* math.pi */
/* the first step of a return, and the step length below which a step that
   keeps meeting the guard ends the return with status 3 */
static const double H_START = 3.141592653589793 / 16;
static const double H_FLOOR = 1e-12;

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
/* stage nodes c1..c7 */
static const double C7[7] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};
static const double B4[7] = {5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640,
                             -92097.0 / 339200, 187.0 / 2100, 1.0 / 40};

/* the folded field polynomials p and q, ascending, and q multiplied by
   the current arc's side */
typedef struct {
    double p[MAXC], q[MAXC], qs[MAXC];
    Py_ssize_t np, nq;
} Coeffs;

static double polyval(const double *co, Py_ssize_t n, double x)
{
    double acc = 0.0;
    for (Py_ssize_t i = n - 1; i >= 0; i--)
        acc = acc * x + co[i];
    return acc;
}

/* (dr/dphi, dt/dphi) at polar point (r, phi) on the current arc; returns
   0, or 1 where the angular speed is below the guard. */
static int field(const Coeffs *co, double r, double phi, double *dr,
                 double *dt)
{
    double c = cos(phi);
    double s = sin(phi);
    double x = r * c;
    double a = -r * s * polyval(co->p, co->np, x) + polyval(co->qs, co->nq, x);
    double w = r + c * a;
    if (!(r > 0.0 && w > TRANSVERSAL_GUARD * r))
        return 1;
    *dt = r / w;
    *dr = s * a * *dt;
    return 0;
}

/* One Dormand-Prince step of length h in phi from stage 1 (kr[0], kt[0]);
   fills the other six stages, kr[6], kt[6] being the field at the stored
   (r5, phi + h), and returns the error estimate on r, or -1 where the
   angular speed fell below the guard. */
static double rk_step(const Coeffs *co, double r, double t, double phi,
                      double h, double kr[7], double kt[7], double *ro,
                      double *to)
{
    double rs = r, ts = t;
    for (int i = 1; i < 7; i++) {
        rs = r;
        for (int j = 0; j < i; j++)
            rs += (h * A5[i][j]) * kr[j];
        if (field(co, rs, phi + C7[i] * h, &kr[i], &kt[i]))
            return -1.0;
    }
    /* t enters no stage: only its 5th-order sum is needed */
    for (int j = 0; j < 6; j++)
        ts += (h * A5[6][j]) * kt[j];
    double er = 0.0;
    for (int i = 0; i < 7; i++) {
        /* b5 - b4, with b5 row 6 of A5 and a zero for stage 7 */
        double he = h * ((i < 6 ? A5[6][i] : 0.0) - B4[i]);
        er += he * kr[i];
    }
    *ro = rs;
    *to = ts;
    return fabs(er);
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

/* finish at the polar point (r, phi), given as (x, y) */
static PyObject *point(int status, double r, double phi, double t,
                       PyObject *crossings)
{
    return finish(status, r * cos(phi), -r * sin(phi), t, crossings);
}

static PyObject *integrate_return(PyObject *self, PyObject *args,
                                  PyObject *kwargs)
{
    static char *kwlist[] = {"mode", "fa0", "fa1", "fb0", "fb1", "fc", "lam",
                             "eps", "x0", "y0", "rk_tol", "event_tol",
                             "max_steps", "r_min", "r_max", NULL};
    int mode;
    PyObject *src[5];
    double lam, eps, x0, y0, rk_tol, event_tol, r_min, r_max;
    long max_steps;
    /* f0, f1, g0, g1, g; zero past their lengths */
    double v[5][MAXC] = {{0.0}};
    Py_ssize_t n[5];
    Coeffs co;
    (void)self;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "iOOOOOddddddldd", kwlist, &mode, &src[0], &src[1],
            &src[2], &src[3], &src[4], &lam, &eps, &x0, &y0, &rk_tol,
            &event_tol, &max_steps, &r_min, &r_max))
        return NULL;
    if (mode != 0 && mode != 1) {
        PyErr_Format(PyExc_ValueError, "unknown field mode %d", mode);
        return NULL;
    }
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

    double r = mode == 0 ? x0 : y0;
    double phi = mode == 0 ? 0.0 : -0.5 * PI;
    double side = mode == 0 ? -1.0 : 1.0;
    double t = 0.0, h = H_START, x = 0.0, y = 0.0, kr[7], kt[7];
    long steps = 0;
    int rejected = 0;
    for (int arc = 0; arc < 2; arc++) {
        double sign = arc == 0 ? -1.0 : 1.0;
        double end = phi + PI;
        for (Py_ssize_t i = 0; i < co.nq; i++)
            co.qs[i] = side * co.q[i];
        /* stage 1 is at an accepted point: below the guard there, the
           return ends */
        if (field(&co, r, phi, &kr[0], &kt[0]))
            return point(3, r, phi, t, crossings);
        while (phi < end) {
            if (steps >= max_steps)
                return point(2, r, phi, t, crossings);
            steps++;
            int last = phi + h >= end;
            double hs, r5, t5;
            if (last)
                hs = end - phi;
            else if (phi + 2.0 * h > end)
                hs = 0.5 * (end - phi);  /* two halves, not a step and a sliver */
            else
                hs = h;
            double err = rk_step(&co, r, t, phi, hs, kr, kt, &r5, &t5);
            if (err < 0.0) {
                /* a trial stage below the guard rejects the step only */
                h = 0.2 * hs;
                if (h < H_FLOOR)
                    return point(3, r, phi, t, crossings);
                rejected = 1;
                continue;
            }
            double tol = rk_tol * (1.0 + fabs(r));
            if (err > tol) {
                h = hs * fmax(0.2, 0.9 * pow(tol / err, 0.2));
                rejected = 1;
                continue;
            }
            r = r5;
            t = t5;
            phi = last ? end : phi + hs;
            kr[0] = kr[6];
            kt[0] = kt[6];
            if (r < r_min || r > r_max)
                return point(1, r, phi, t, crossings);
            /* a clipped step keeps h: the arc's end, not the error, set
               its length; right after a rejection h may not grow */
            if (!last) {
                double fac = err > 0.0 ? fmin(5.0, 0.9 * pow(tol / err, 0.2))
                                       : 5.0;
                h = hs * (rejected ? fmin(1.0, fac) : fac);
            }
            rejected = 0;
        }
        /* land exactly on the line; the next arc has the other side */
        side = -side;
        x = mode == 0 ? sign * r : 0.0;
        y = mode == 0 ? 0.0 : sign * r;
        PyObject *event = Py_BuildValue("(dddd)", t, x, y, side);
        if (event == NULL || PyList_Append(crossings, event) < 0) {
            Py_XDECREF(event);
            Py_DECREF(crossings);
            return NULL;
        }
        Py_DECREF(event);
    }
    return finish(0, x, y, t, crossings);
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
    "Compiled trajectory kernel: adaptive RK45 in the polar angle.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
