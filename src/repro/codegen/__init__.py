"""Code generation and optimization (§6 and §7 of the paper).

Passes (run by :mod:`repro.pipeline` according to the optimization
level):

* :mod:`repro.codegen.splitphase` — blocking accesses become
  ``get``/``put`` plus an adjacent ``sync_ctr``;
* :mod:`repro.codegen.reuse` — redundant-get elimination and dead-put
  (write-back) elimination;
* :mod:`repro.codegen.syncmotion` — ``sync_ctr`` operations sink away
  from their initiations (message pipelining);
* :mod:`repro.codegen.oneway` — ``put``s whose syncs all reach a
  barrier become acknowledgement-free ``store``s.
"""
