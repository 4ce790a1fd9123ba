"""The five workloads, by name."""

from bench.compile_cold import CompileCold
from bench.serve_mix import ServeMix
from bench.simulate import Fig12, SimInterp, SimMsg

WORKLOADS = {
    cls.name: cls
    for cls in (CompileCold, Fig12, SimInterp, SimMsg, ServeMix)
}
