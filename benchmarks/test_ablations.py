"""Ablations of the design choices the paper motivates.

Not figures of the paper, but experiments isolating each mechanism's
contribution — the Skip-index metadata (token filtering), the subtree
bulk copy, the chunk/fragment geometry of the integrity layer and the
static policy optimizer.
"""

import pytest

from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.accesscontrol.optimizer import optimize_policy
from repro.crypto.chunks import ChunkLayout
from repro.engine import evaluate_document, prepare_document
from repro.metrics import Meter
from repro.skipindex.decoder import SkipIndexNavigator
from repro.accesscontrol.model import AccessRule, Policy


def run_encoded(workloads, policy, provide_meta=True, enable_skipping=True,
                enable_subtree_copy=True):
    encoded = workloads.encoded("hospital")
    meter = Meter()
    navigator = SkipIndexNavigator(
        encoded.data, encoded.dictionary, encoded.root_offset,
        meter=meter, provide_meta=provide_meta,
    )
    evaluator = StreamingEvaluator(
        policy, meter=meter, enable_skipping=enable_skipping,
        enable_subtree_copy=enable_subtree_copy,
    )
    events = evaluator.run(navigator)
    return events, meter


def test_ablation_token_filtering(workloads, benchmark):
    """Skip-index metadata lets the evaluator kill doomed tokens; with
    skipping but *no* metadata, far fewer subtrees become skippable."""
    policy = workloads.profile("researcher")

    def kernel():
        return (
            run_encoded(workloads, policy, provide_meta=True),
            run_encoded(workloads, policy, provide_meta=False),
        )

    (with_meta, meter_meta), (without_meta, meter_none) = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )
    assert with_meta == without_meta  # results must be identical
    print(
        "\nwith metadata:    events=%d skipped=%d killed=%d"
        % (meter_meta.events, meter_meta.skipped_subtrees, meter_meta.killed_tokens)
    )
    print(
        "without metadata: events=%d skipped=%d killed=%d"
        % (meter_none.events, meter_none.skipped_subtrees, meter_none.killed_tokens)
    )
    assert meter_meta.killed_tokens > 0
    assert meter_none.killed_tokens == 0
    assert meter_meta.events < meter_none.events
    assert meter_meta.skipped_subtrees > meter_none.skipped_subtrees


def test_ablation_subtree_copy(workloads, benchmark):
    """Bulk-copying authorized subtrees removes their token processing."""
    policy = workloads.profile("secretary")

    def kernel():
        return (
            run_encoded(workloads, policy, enable_subtree_copy=True),
            run_encoded(workloads, policy, enable_subtree_copy=False),
        )

    (with_copy, meter_copy), (without_copy, meter_none) = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )
    assert with_copy == without_copy
    print(
        "\nwith copy:    events=%d token_ops=%d"
        % (meter_copy.events, meter_copy.token_ops)
    )
    print(
        "without copy: events=%d token_ops=%d"
        % (meter_none.events, meter_none.token_ops)
    )
    assert meter_copy.events < meter_none.events


@pytest.mark.parametrize("chunk_size", [512, 2048, 8192])
def test_ablation_chunk_size(workloads, benchmark, chunk_size):
    """Chunk geometry trades digest overhead against read granularity.

    Small chunks: more digests to decrypt; large chunks: CBC-style
    schemes degrade, MHT keeps fragment granularity.
    """
    tree = workloads.document("hospital")
    policy = workloads.profile("secretary")
    layout = ChunkLayout(chunk_size=chunk_size, fragment_size=256)
    prepared = benchmark.pedantic(
        lambda: prepare_document(tree, scheme="ECB-MHT", layout=layout),
        rounds=1,
        iterations=1,
    )
    result = evaluate_document(prepared, policy)
    print(
        "\nchunk=%d: time=%.3fs transferred=%d digests=%d"
        % (
            chunk_size,
            result.seconds,
            result.meter.bytes_transferred,
            result.meter.digest_decrypts,
        )
    )
    assert result.meter.digest_decrypts > 0


@pytest.mark.parametrize("fragment_size", [64, 256, 1024])
def test_ablation_fragment_size(workloads, fragment_size):
    """Fragment geometry: finer fragments transfer less data but more
    sibling hashes (Appendix A's trade-off)."""
    tree = workloads.document("hospital")
    policy = workloads.profile("secretary")
    layout = ChunkLayout(chunk_size=2048, fragment_size=fragment_size)
    prepared = prepare_document(tree, scheme="ECB-MHT", layout=layout)
    result = evaluate_document(prepared, policy)
    print(
        "fragment=%d: time=%.3fs transferred=%d hash_nodes=%d"
        % (
            fragment_size,
            result.seconds,
            result.meter.bytes_transferred,
            result.meter.hash_nodes,
        )
    )
    assert result.events


def test_ablation_policy_optimizer(workloads, benchmark):
    """Redundant rules cost token operations; the optimizer removes
    provably-contained same-sign rules."""
    redundant = Policy(
        [
            AccessRule("+", "//Admin"),
            AccessRule("+", "//Folder/Admin"),
            AccessRule("+", "//Admin/SSN"),
            AccessRule("+", "//Admin/Age"),
            AccessRule("+", "//Hospital//Admin"),
        ]
    )
    optimized = optimize_policy(redundant)
    assert len(optimized) < len(redundant)

    def kernel():
        return (
            run_encoded(workloads, redundant),
            run_encoded(workloads, optimized),
        )

    (view_full, meter_full), (view_opt, meter_opt) = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )
    assert view_full == view_opt  # semantics preserved
    print(
        "\nredundant: rules=%d token_ops=%d; optimized: rules=%d token_ops=%d"
        % (len(redundant), meter_full.token_ops, len(optimized), meter_opt.token_ops)
    )
    assert meter_opt.token_ops <= meter_full.token_ops
