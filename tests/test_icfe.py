import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import dmff, icfe, tensor_core as tc
from crossfuse.cfe import PARAM_NAMES, cfe_forward, cfe_spec
from conftest import fd_gradient, rel_err


def seq(arr):
    return tc.Tensor(arr, dtype=np.float64)


def make_set(rng):
    return tc.init_tensors(cfe_spec(4, 8), rng, np.float64)


def make_pair(rng, shared=False):
    """(rgb set, thermal set); one mapping for both directions when shared."""
    p_r = make_set(rng)
    return p_r, (p_r if shared else make_set(rng))


def prefixed(*parts):
    return {prefix + leaf: t for prefix, p in parts for leaf, t in p.items()}


def backward_per_output(tape, seeds):
    """name -> gradient array of sum_i sum(out_i * seed_i): one ``backward``
    per (out_i, seed_i), seeded with that output's exact adjoint, summed
    over the records."""
    total = {}
    for out, seed in seeds:
        for name, g in tc.backward(seq(seed), tape, out).items():
            total[name] = total[name] + g.data if name in total else g.data
    return total


def stack_blocks(stack):
    """The block list of a ``stacked_spec`` mapping, block0 first; a
    missing leaf raises KeyError and a leftover name fails the count."""
    depth = len({name.split(".", 1)[0] for name in stack})
    blocks = [tuple({leaf: stack[f"block{i}.cfe_{b}.{leaf}"] for leaf in PARAM_NAMES}
                    for b in "rt") for i in range(depth)]
    assert 2 * depth * len(PARAM_NAMES) == len(stack)
    return blocks


def test_zero_iterations_is_identity(rng):
    p_r, p_t = make_pair(rng)
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    out_r, out_t = icfe.icfe_forward(t_r, t_t, [], 2)
    assert out_r is t_r
    assert out_t is t_t


def test_one_iteration_equals_single_dual_application(rng):
    p_r, p_t = make_pair(rng)
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    out_r, out_t = icfe.icfe_forward(t_r, t_t, [(p_r, p_t)], 2)
    want_r = cfe_forward(t_r, t_t, p_r, 2)
    want_t = cfe_forward(t_t, t_r, p_t, 2)
    npt.assert_array_equal(out_r.data, want_r.data)
    npt.assert_array_equal(out_t.data, want_t.data)


def test_two_iterations_match_manual_composition(rng):
    p_r, p_t = make_pair(rng)
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    out_r, out_t = icfe.icfe_forward(t_r, t_t, [(p_r, p_t)] * 2, 2)
    # manual synchronous composition with the same parameter tensors
    r1 = cfe_forward(t_r, t_t, p_r, 2)
    t1 = cfe_forward(t_t, t_r, p_t, 2)
    r2 = cfe_forward(r1, t1, p_r, 2)
    t2 = cfe_forward(t1, r1, p_t, 2)
    npt.assert_array_equal(out_r.data, r2.data)
    npt.assert_array_equal(out_t.data, t2.data)


def test_sequential_flag_changes_the_composition(rng):
    p_r, p_t = make_pair(rng)
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    sync_r, sync_t = icfe.icfe_forward(t_r, t_t, [(p_r, p_t)], 2)
    seq_r, seq_t = icfe.icfe_forward(t_r, t_t, [(p_r, p_t)], 2, sequential=True)
    npt.assert_array_equal(sync_r.data, seq_r.data)
    # thermal sees the updated rgb stream in sequential mode
    assert np.max(np.abs(sync_t.data - seq_t.data)) > 1e-9
    want_t = cfe_forward(t_t, seq_r, p_t, 2)
    npt.assert_array_equal(seq_t.data, want_t.data)


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("enhanced", ["r", "t"])
def test_a_none_mapping_skips_its_direction(rng, enhanced, sequential):
    # one branch refined k times against the other's fixed tokens, which
    # come back as the very tensor passed in
    p = make_set(rng)
    given = {b: seq(rng.standard_normal((4, 4))) for b in "rt"}
    block = tuple(p if b == enhanced else None for b in "rt")
    out = dict(zip("rt", icfe.icfe_forward(given["r"], given["t"], [block] * 3, 2,
                                           sequential=sequential)))
    other = "t" if enhanced == "r" else "r"
    want = given[enhanced]
    for _ in range(3):
        want = cfe_forward(want, given[other], p, 2)
    assert out[enhanced].data.tobytes() == want.data.tobytes()
    assert out[other] is given[other]


# Tape steps of a taped mode a or b fuse at 4x4x8, pinned while the two
# modes still ran a loop of their own in dmff_fuse: eight per iteration.
ONE_BRANCH_TAPE_STEPS = {("pool", 1): 20, ("pool", 3): 36, ("conv", 1): 24, ("conv", 3): 40}


@pytest.mark.parametrize("mode", ["a", "b"])
@pytest.mark.parametrize("variant, iterations", list(ONE_BRANCH_TAPE_STEPS))
def test_one_branch_fuse_records_its_pinned_tape_steps(rng, mode, variant, iterations):
    cfg = dmff.DmffConfig(mode=mode, shrink_variant=variant, iterations=iterations,
                          heads=2, ffn_hidden=16)
    wts = dmff.init_dmff_weights(cfg, 4, 4, 8, rng, dtype=np.float64)
    f_r, f_t = (tc.Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float64) for _ in "rt")
    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        dmff.dmff_fuse(f_r, f_t, cfg, wts)
    assert tape.num_steps == ONE_BRANCH_TAPE_STEPS[variant, iterations]


def test_stacked_one_block_matches_icfe_one_iteration(rng):
    p_r, p_t = make_pair(rng)
    stack = prefixed(("block0.cfe_r.", p_r), ("block0.cfe_t.", p_t))
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    i_r, i_t = icfe.icfe_forward(t_r, t_t, [(p_r, p_t)], 2)
    s_r, s_t = icfe.icfe_forward(t_r, t_t, stack_blocks(stack), 2)
    npt.assert_array_equal(i_r.data, s_r.data)
    npt.assert_array_equal(i_t.data, s_t.data)


def test_identity_second_block_is_a_no_op(rng):
    first = make_pair(rng)
    bypass = tuple(
        dict(blk, alpha=tc.scalar(0.0, np.float64), beta=tc.scalar(1.0, np.float64),
             gamma=tc.scalar(1.0, np.float64), delta=tc.scalar(0.0, np.float64))
        for blk in make_pair(rng)
    )
    one = prefixed(*zip(("block0.cfe_r.", "block0.cfe_t."), first))
    two = dict(one, **prefixed(*zip(("block1.cfe_r.", "block1.cfe_t."), bypass)))
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    one_r, one_t = icfe.icfe_forward(t_r, t_t, stack_blocks(one), 2)
    two_r, two_t = icfe.icfe_forward(t_r, t_t, stack_blocks(two), 2)
    npt.assert_array_equal(one_r.data, two_r.data)
    npt.assert_array_equal(one_t.data, two_t.data)


def test_three_blocks_match_explicit_fold(rng):
    stack = tc.init_tensors(icfe.stacked_spec(4, 8, 3), rng, np.float64)
    t_r, t_t = seq(rng.standard_normal((4, 4))), seq(rng.standard_normal((4, 4)))
    got_r, got_t = icfe.icfe_forward(t_r, t_t, stack_blocks(stack), 2)
    cur_r, cur_t = t_r, t_t
    for i in range(3):
        block_r, block_t = ({n.rsplit(".", 1)[1]: t for n, t in stack.items()
                             if n.startswith(f"block{i}.cfe_{b}.")} for b in "rt")
        cur_r, cur_t = (cfe_forward(cur_r, cur_t, block_r, 2),
                        cfe_forward(cur_t, cur_r, block_t, 2))
    npt.assert_array_equal(got_r.data, cur_r.data)
    npt.assert_array_equal(got_t.data, cur_t.data)


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("shared", [False, True])
def test_tied_stacked_blocks_equal_the_shared_refinement(rng, shared, sequential):
    # parameter sharing is a stack whose blocks all hold one set: three
    # blocks of copies give the shared refinement's outputs byte for byte,
    # and their gradients, summed over blocks, the shared set's gradient
    p_r, p_t = make_pair(rng, shared=shared)
    shared_names = (("cfe.", p_r),) if shared else (("cfe_r.", p_r), ("cfe_t.", p_t))
    stack = {f"block{i}.cfe_{b}.{leaf}": seq(np.array(t.data))
             for i in range(3) for b, p in zip("rt", (p_r, p_t)) for leaf, t in p.items()}
    r_arr = rng.standard_normal((3, 4)) * 0.5
    t_arr = rng.standard_normal((3, 4)) * 0.5

    def taped(blocks, watched):
        tape = tc.Tape()
        tape.watch_all(watched.items())
        with tc.record_on(tape):
            out_r, out_t = icfe.icfe_forward(seq(r_arr), seq(t_arr), blocks, 2,
                                             sequential=sequential)
        # the loss sum(out_r * out_t) has adjoint out_t at out_r and out_r at out_t
        return out_r, out_t, backward_per_output(tape, [(out_r, out_t.data),
                                                        (out_t, out_r.data)])

    want_r, want_t, want = taped([(p_r, p_t)] * 3, prefixed(*shared_names))
    got_r, got_t, got = taped(stack_blocks(stack), stack)
    assert got_r.data.tobytes() == want_r.data.tobytes()
    assert got_t.data.tobytes() == want_t.data.tobytes()
    for prefix, p in shared_names:
        branches = "rt" if shared else prefix[-2]
        for leaf in p:
            total = sum(got[f"block{i}.cfe_{b}.{leaf}"] for i in range(3) for b in branches)
            assert rel_err(total, want[prefix + leaf]) < 1e-12, prefix + leaf


def test_shared_gradients_sum_over_iterations(rng):
    # with two iterations the shared weights are used four times; the tape
    # must accumulate every use, matching finite differences
    p, _ = make_pair(rng, shared=True)
    r_arr = rng.standard_normal((3, 4)) * 0.5
    t_arr = rng.standard_normal((3, 4)) * 0.5

    def loss_value(params):
        out_r, out_t = icfe.icfe_forward(seq(r_arr), seq(t_arr), [(params, params)] * 2, 2)
        return float((out_r.data ** 2).sum() + (out_t.data ** 2).sum())

    tape = tc.Tape()
    tape.watch_all(prefixed(("cfe.", p)).items())
    with tc.record_on(tape):
        out_r, out_t = icfe.icfe_forward(seq(r_arr), seq(t_arr), [(p, p)] * 2, 2)
    # sum(out^2) has adjoint 2 out at each output
    rec = backward_per_output(tape, [(out, 2 * out.data) for out in (out_r, out_t)])
    for name in ("cfe.w_q", "cfe.ffn_w1", "cfe.alpha", "cfe.beta"):
        field = name.split(".", 1)[1]

        def loss_with(t, field=field):
            return loss_value({**p, field: t})

        fd = fd_gradient(loss_with, p[field])
        assert rel_err(rec[name], fd) < 1e-4, name


def test_unshared_gradients_fd_validated(rng):
    p_r, p_t = make_pair(rng)
    r_arr = rng.standard_normal((3, 4)) * 0.5
    t_arr = rng.standard_normal((3, 4)) * 0.5
    tape = tc.Tape()
    tape.watch_all(prefixed(("cfe_r.", p_r), ("cfe_t.", p_t)).items())
    with tc.record_on(tape):
        out_r, out_t = icfe.icfe_forward(seq(r_arr), seq(t_arr), [(p_r, p_t)] * 2, 2)
    rec = backward_per_output(tape, [(out_r, out_t.data), (out_t, out_r.data)])

    def loss_with_wq(t):
        blocks = [({**p_r, "w_q": t}, p_t)] * 2
        out_r, out_t = icfe.icfe_forward(seq(r_arr), seq(t_arr), blocks, 2)
        return float((out_r.data * out_t.data).sum())

    fd = fd_gradient(loss_with_wq, p_r["w_q"])
    assert rel_err(rec["cfe_r.w_q"], fd) < 1e-4
