"""Cholesky: producer-consumer factorization on post/wait flags.

The paper's Cholesky distributes a lower-triangular matrix
blocked-cyclically and synchronizes producer-consumer style with
post/wait flags on columns (§8).  Our column-cyclic variant keeps that
exact structure:

* each processor owns the columns ``k % PROCS == MYPROC`` and keeps
  its working set in *local* memory;
* when column ``k`` is finalized its owner *publishes* it to the shared
  ``Cols`` array (a burst of remote writes) and posts ``done[k]``;
* every processor (owner included) waits on ``done[k]``, gathers the
  column (a burst of remote reads), and updates its own later columns
  locally.

The analysis story: the delays [publish, post] and [wait, gather] are
fundamental (they are in D1); closing D1 with the post→wait edge gives
``publish R gather`` (the paper's §5.1 derivation), which orients the
conflict edges and thereby lets both the publish and the gather loops
pipeline.
"""

from __future__ import annotations

import math
from typing import List

from repro.apps.base import App, Snapshot, assert_close

#: Matrix dimension (divides evenly over supported procs).
N = 12


def _matrix_entry(i: int, j: int) -> float:
    """A symmetric positive-definite test matrix."""
    return 1.0 / (1.0 + abs(i - j)) + (N if i == j else 0.0)


def source(procs: int) -> str:
    return f"""
// Cholesky: column-cyclic factorization with post/wait flags, N={N}.
shared double Cols[{N}][{N}];
shared flag_t done[{N}];

void main() {{
  int k; int i; int j;
  double L[{N}][{N}];
  double col[{N}];
  double piv;
  double entry;

  // Build my columns of the SPD input locally.
  for (j = 0; j < {N}; j = j + 1) {{
    if (j % PROCS == MYPROC) {{
      for (i = 0; i < {N}; i = i + 1) {{
        entry = 1.0 / (1.0 + abs(i - j));
        if (i == j) {{ entry = entry + {N}.0; }}
        L[i][j] = entry;
      }}
    }}
  }}

  for (k = 0; k < {N}; k = k + 1) {{
    if (k % PROCS == MYPROC) {{
      // Finalize and publish column k.
      piv = sqrt(L[k][k]);
      for (i = k; i < {N}; i = i + 1) {{
        Cols[i][k] = L[i][k] / piv;
      }}
      post(done[k]);
    }}
    wait(done[k]);

    // Gather the finalized column.
    for (i = k; i < {N}; i = i + 1) {{
      col[i] = Cols[i][k];
    }}

    // Update my remaining columns locally.
    for (j = k + 1; j < {N}; j = j + 1) {{
      if (j % PROCS == MYPROC) {{
        for (i = j; i < {N}; i = i + 1) {{
          L[i][j] = L[i][j] - col[i] * col[j];
        }}
      }}
    }}
  }}
}}
"""


def reference() -> List[List[float]]:
    """The Cholesky factor of the test matrix (pure Python)."""
    a = [[_matrix_entry(i, j) for j in range(N)] for i in range(N)]
    factor = [[0.0] * N for _ in range(N)]
    for k in range(N):
        piv = math.sqrt(a[k][k])
        for i in range(k, N):
            factor[i][k] = a[i][k] / piv
        for j in range(k + 1, N):
            for i in range(j, N):
                a[i][j] -= factor[i][k] * factor[j][k]
    return factor


def check(snapshot: Snapshot, procs: int) -> None:
    expected = reference()
    actual = snapshot["Cols"]
    for i in range(N):
        for k in range(i + 1):  # lower triangle only
            assert_close(
                actual[i * N + k], expected[i][k], f"Cols[{i}][{k}]",
                tol=1e-9,
            )


APP = App(
    name="cholesky",
    description="column-cyclic Cholesky with post/wait column flags",
    sync_style="post-wait",
    source=source,
    check=check,
    supported_procs=(1, 2, 3, 4, 6, 12),
)
