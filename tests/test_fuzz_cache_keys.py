"""Property test: no two fuzz-matrix configurations share a cache key.

Cache keys are ``(sdfg.content_hash(), manager.fingerprint(),
ctx.fingerprint())`` — constructible without compiling, so this sweeps the
full ``{O0..O3} x {forward, grad, vmap, vmap∘grad} x {numpy, cython}``
matrix over a sample of generated programs and asserts all 32 keys are
pairwise distinct.  A collision here would mean one configuration silently
serving another's compiled artifact (the exact failure mode the
differential harness's shared-cache design is meant to surface).
"""

import pytest

from repro.batching import vmap as repro_vmap
from repro.batching.vmap import Vmap
from repro.fuzz import CaseSpec, ProgramGenerator, build_sdfg, hard_templates
from repro.pipeline.driver import build_pipeline
from repro.pipeline.pass_base import PassContext
from repro.util.errors import UnsupportedFeatureError


def _matrix_keys(program):
    """One cache key per configuration, built without compiling anything.

    Programs the batching transform rejects (e.g. data-dependent branches —
    a recorded *skip* in the differential harness) contribute no ``vmap``
    keys, mirroring the configurations that can actually reach the cache.
    """
    spec = CaseSpec.from_program(program)
    sdfg = build_sdfg(spec.repro_source, spec.args, spec.dtype, spec.name)
    try:
        batched = repro_vmap(sdfg, in_axes=spec.in_axes()).to_sdfg()
    except UnsupportedFeatureError:
        batched = None
    wrt = spec.wrt()
    ctx_fp = PassContext().fingerprint()

    keys = {}
    for tier in ("O0", "O1", "O2", "O3"):
        for backend in (None, "cython"):
            label = backend or "numpy"
            managers = {
                "forward": (sdfg, build_pipeline(tier, backend=backend)),
                "grad": (sdfg, build_pipeline(
                    tier, gradient=True, wrt=wrt, backend=backend)),
                # repro.vmap compiles the *batched* SDFG for forward calls...
                "vmap": (batched, build_pipeline(tier, backend=backend)),
                # ...and replays the gradient pipeline with the Vmap pass
                # inserted pre-AD for vmap(grad(f)).
                "vmap_grad": (sdfg, build_pipeline(
                    tier, gradient=True, wrt=wrt, backend=backend,
                    extra_passes=(Vmap(in_axes=spec.in_axes()),))),
            }
            for mode, (which_sdfg, manager) in managers.items():
                if which_sdfg is None:
                    continue
                keys[(tier, mode, label)] = (
                    which_sdfg.content_hash(), manager.fingerprint(), ctx_fp,
                )
    return keys


def _assert_distinct(keys):
    seen = {}
    for config, key in keys.items():
        assert key not in seen, (
            f"cache-key collision between {seen[key]} and {config}"
        )
        seen[key] = config


@pytest.mark.parametrize("seed", [0, 13, 99])
def test_generated_programs_get_distinct_keys_per_config(seed):
    program = ProgramGenerator(seed).random_program()
    keys = _matrix_keys(program)
    assert len(keys) in (24, 32)  # 24 when the program is not batchable
    _assert_distinct(keys)


@pytest.mark.parametrize("template_index", [0, 4, 6])
def test_hard_templates_get_distinct_keys_per_config(template_index):
    program = hard_templates()[template_index]
    _assert_distinct(_matrix_keys(program))


def test_different_programs_never_share_keys():
    generator = ProgramGenerator(7)
    first = _matrix_keys(generator.random_program())
    second = _matrix_keys(generator.random_program())
    assert not set(first.values()) & set(second.values())


@pytest.mark.parametrize("tier", ["O0", "O1", "O2", "O3"])
def test_tier_fingerprints_never_collide(tier):
    """Memory planning belongs to every tier but ``O0`` rather than to an
    option, so the tier alone fixes the pipeline: each tier's forward and
    gradient pipelines differ from every other tier's and from each other,
    and only the optimizing tiers carry the planning stage."""
    others = [other for other in ("O0", "O1", "O2", "O3") if other != tier]
    for gradient in (False, True):
        wrt = ["A"] if gradient else None
        manager = build_pipeline(tier, gradient=gradient, wrt=wrt)
        names = [p.name for p in manager.passes]
        assert ("memory-planning" in names) == (tier != "O0")
        assert names[-1] == "codegen"
        for other in others:
            assert manager.fingerprint() != build_pipeline(
                other, gradient=gradient, wrt=wrt).fingerprint()
    assert build_pipeline(tier).fingerprint() != build_pipeline(
        tier, gradient=True, wrt=["A"]).fingerprint()
