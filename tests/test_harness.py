"""Generators, file formats, reports and the CLI."""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from collapsekit import (
    Budget,
    BudgetExceededError,
    Hypergraph,
    SimplicialComplex,
    hypergraphs,
    reports,
)
from collapsekit.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from collapsekit.errors import VertexRangeError
from collapsekit.generators import (
    _HYPERGRAPH_KINDS,
    _LEAST,
    _drop_isolated,
    KINDS,
    GeneratorSpec,
    NAMED_EXAMPLES,
    SEEDLESS_KINDS,
    generate,
    star_family,
    v6f10_6,
)
from collapsekit.io import (
    complex_from_obj,
    complex_to_obj,
    hypergraph_from_obj,
    hypergraph_to_obj,
    instance_to_json,
    load_instance,
)
from collapsekit.reports import (
    THEOREMS,
    certificate_from_obj,
    compute,
    conjecture_search,
    report_json,
    verify,
)

from conftest import all_hypergraphs


# -- generators ------------------------------------------------------------

def test_identical_spec_identical_instance():
    for kind in ("random-complex", "random-hypergraph", "random-graph"):
        spec = GeneratorSpec(kind=kind, seed=42, n=6, m=7)
        assert generate(spec) == generate(spec)


@pytest.mark.parametrize("kind", KINDS)
def test_hypergraph_kinds_are_the_kinds_that_build_hypergraphs(kind):
    inst = generate(GeneratorSpec(kind=kind, name="triangle"))
    assert isinstance(inst, Hypergraph) == (kind in _HYPERGRAPH_KINDS)


def test_every_theorem_default_kind_is_a_kind():
    assert {kind for kind, _ in THEOREMS.values()} <= set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_cli_generates_every_kind(kind, capsys):
    assert main(["generate", "--kind", kind, "--name", "triangle"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)


def test_different_seeds_usually_differ():
    instances = {generate(GeneratorSpec(kind="random-complex", seed=s))
                 for s in range(8)}
    assert len(instances) > 1


def test_named_examples():
    for name in NAMED_EXAMPLES:
        inst = generate(GeneratorSpec(kind="named-example", name=name))
        assert isinstance(inst, SimplicialComplex)
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="named-example", name="nope"))


def test_unknown_kind():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="mystery"))


def test_random_hypergraphs_have_no_isolated_vertices():
    for s in range(30):
        h = generate(GeneratorSpec(kind="random-hypergraph", seed=s, n=6, m=5))
        assert not h.isolated_vertices()


def test_dropping_isolated_vertices_once_leaves_none():
    """One pass suffices: an edge on two or more vertices gives each of its
    vertices a neighbour, so it survives whole."""
    for n in range(1, 5):
        for h in all_hypergraphs(n):
            assert not _drop_isolated(h.n, h.edges).isolated_vertices(), h


def drop_isolated_by_labels(h: Hypergraph) -> Hypergraph:
    """The label route `_drop_isolated` took before it read masks: remove
    the isolated vertices of a built hypergraph, relabel the rest to 1..n'
    by a dict, and rebuild through the checking constructor."""
    iso = h.isolated_vertices()
    if not iso:
        return h
    keep = [v for v in range(1, h.n + 1) if v not in iso]
    if len(keep) < 2:
        return Hypergraph(2, [(1, 2)])
    relabel = {old: i + 1 for i, old in enumerate(keep)}
    edges = [
        tuple(relabel[v] for v in e.vertices)
        for e in h.edges
        if all(v in relabel for v in e.vertices)
    ]
    return Hypergraph(len(keep), edges)


def test_dropping_isolated_vertices_on_masks_matches_the_label_route():
    """On every hypergraph on <= 3 vertices, and on 500 seeded random edge
    lists on 5-12 vertices with repeated edges, in drawing order."""
    for n in range(1, 4):
        for h in all_hypergraphs(n):
            masks = list(h.edges[::-1]) + list(h.edges[:1])
            assert _drop_isolated(n, masks) == drop_isolated_by_labels(h), h
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(5, 12)
        masks = [rng.randrange(2, 1 << (n + 1), 2) if rng.random() < 0.5
                 else 1 << rng.randint(1, n) for _ in range(rng.randint(0, 9))]
        masks += masks[:rng.randint(0, 2)]
        want = (drop_isolated_by_labels(Hypergraph(n, masks)) if masks
                else Hypergraph(2, [(1, 2)]))
        assert _drop_isolated(n, masks) == want, (n, masks)


#: sha256 over `instance_to_json(generate(GeneratorSpec(kind=k, seed=s)))`
#: for every seeded kind k in KINDS order and s = 0..399, and over
#: `json.dumps(verify(t, GeneratorSpec(kind=THEOREMS[t][0], seed=s, n=6,
#: m=7), trials=3), sort_keys=True)` for every theorem t in THEOREMS order
#: and s = 0..39.  Both were taken from the label-route generators and the
#: eagerly seeded trial streams, so they pin every draw and every summary.
GENERATED_DIGEST = (
    "deee45ef299a6c25371f9386a711675522f26bc988fd24cf91a7ecb398f7845d")
VERIFIED_DIGEST = (
    "3f1be8d5e07402a84a88fd551c584aeca24d81b19ab2f9379f1872af9d9350d0")


def test_generated_instances_are_pinned():
    digest = hashlib.sha256()
    for kind in KINDS:
        if kind in SEEDLESS_KINDS:
            continue
        for seed in range(400):
            digest.update(instance_to_json(
                generate(GeneratorSpec(kind=kind, seed=seed))).encode())
    assert digest.hexdigest() == GENERATED_DIGEST


def test_verify_summaries_are_pinned():
    digest = hashlib.sha256()
    for theorem, (kind, _) in THEOREMS.items():
        for seed in range(40):
            summary = verify(theorem, GeneratorSpec(kind=kind, seed=seed,
                                                    n=6, m=7), trials=3)
            digest.update(json.dumps(summary, sort_keys=True).encode())
    assert digest.hexdigest() == VERIFIED_DIGEST


@pytest.mark.parametrize("kind", sorted(_LEAST))
def test_random_kinds_above_the_vertex_range_fail_on_every_seed(kind):
    """Labels are bits of a 128-bit mask: n = 128 raises on every seed,
    not only on the seeds that happen to draw vertex 128, and n = 127
    builds."""
    for seed in range(50):
        with pytest.raises(VertexRangeError, match=f"{kind} needs n <= 127, "
                                                   "got 128"):
            generate(GeneratorSpec(kind=kind, seed=seed, n=128))
    assert generate(GeneratorSpec(kind=kind, seed=0, n=127))


def test_verify_checks_the_spec_before_the_first_trial(monkeypatch):
    """A spec no seed can build fails whatever the trial count, zero
    included, and before any trial is built."""
    def refuse(spec, index):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(reports, "_trial_instance", refuse)
    wide = GeneratorSpec(kind="random-complex", n=128, m=3, max_size=2)
    for trials in (0, 5, 200):
        with pytest.raises(VertexRangeError):
            verify("euler", wide, trials=trials)
        with pytest.raises(VertexRangeError):
            conjecture_search(1, wide, trials=trials)
        with pytest.raises(ValueError, match="n >= 1, got 0"):
            verify("euler", GeneratorSpec(kind="random-complex", n=0),
                   trials=trials)


@pytest.mark.parametrize("theorem, spec, error, named", [
    ("nc-bound", GeneratorSpec(kind="star-family", n=1), ValueError,
     "star family needs n >= 2"),
    ("nc-bound", GeneratorSpec(kind="star-family", n=3, leaves=(1, 0, 1)),
     ValueError, "need one positive leaf count per star"),
    ("nc-bound", GeneratorSpec(kind="star-family", n=3, leaves=(1, 1)),
     ValueError, "need one positive leaf count per star"),
    # n centers and n default leaves: 128 labels
    ("nc-bound", GeneratorSpec(kind="star-family", n=64), VertexRangeError,
     r"star-family needs n \+ sum\(leaves\) <= 127, got 128"),
    ("nc-bound", GeneratorSpec(kind="star-family", n=2, leaves=(60, 66)),
     VertexRangeError, r"n \+ sum\(leaves\) <= 127, got 128"),
    ("euler", GeneratorSpec(kind="named-example", name="nope"), ValueError,
     "unknown named example 'nope'"),
])
def test_seedless_kinds_fail_before_the_first_trial(monkeypatch, theorem,
                                                     spec, error, named):
    """A star family or named example no call can build fails in
    `generate` and in `verify`, whatever the trial count, zero included,
    and before any trial is built, as the random kinds do."""
    with pytest.raises(error, match=named):
        generate(spec)

    def refuse(spec, index):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(reports, "_trial_instance", refuse)
    for trials in (0, 1, 5):
        with pytest.raises(error, match=named):
            verify(theorem, spec, trials=trials)


def test_star_families_up_to_the_label_range_build():
    """n = 63 with one leaf per star takes 126 labels, and a family of
    exactly 127 labels builds."""
    assert generate(GeneratorSpec(kind="star-family", n=63)).n == 126
    assert star_family(2, (60, 65)).n == 127
    summary = verify("nc-bound", GeneratorSpec(kind="star-family", n=63),
                     trials=0)
    assert summary["trials"] == 0


def test_only_the_drawing_probes_seed_a_stream(monkeypatch):
    """verify hands each probe a factory for its trial's stream: the
    probes that shuffle call it once per trial, the others never."""
    seeds = []

    def counted(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(reports, "random", SimpleNamespace(Random=counted))
    drawing = {"mk-chain", "m0-le-mes", "gamma-monotone"}
    for theorem, (kind, _) in THEOREMS.items():
        seeds.clear()
        summary = verify(theorem, GeneratorSpec(kind=kind, seed=4, n=5, m=6),
                         trials=3)
        assert summary["fails"] == 0, theorem
        want = ([f"4:{theorem}:{i}" for i in range(3)]
                if theorem in drawing else [])
        assert seeds == want, theorem


def test_random_graph_edges_are_pairs():
    h = generate(GeneratorSpec(kind="random-graph", seed=3, n=6, m=8))
    assert all(e.bit_count() == 2 for e in h.edges)


def test_random_kvd_is_pure_and_decomposable():
    from collapsekit import is_k_vertex_decomposable

    x = generate(GeneratorSpec(kind="random-kvd", seed=5, n=6, m=6, k=1))
    assert x.is_pure()
    assert is_k_vertex_decomposable(x, 1)[0]


def test_star_family_generator():
    h = generate(GeneratorSpec(kind="star-family", n=3))
    assert h == star_family(3, (1, 1, 1))


# -- file formats ----------------------------------------------------------

def test_complex_round_trip(tmp_path):
    x = v6f10_6()
    p = tmp_path / "x.json"
    p.write_text(instance_to_json(x))
    assert load_instance(str(p)) == x


def test_hypergraph_round_trip(tmp_path):
    h = Hypergraph(4, [(1, 2), (2, 3, 4)])
    p = tmp_path / "h.json"
    p.write_text(instance_to_json(h))
    assert load_instance(str(p)) == h


def test_complex_loader_canonicalizes_facets():
    x = complex_from_obj(
        {"vertices": [1, 2, 3], "facets": [[1, 2], [1], [1, 2]]}
    )
    assert x == SimplicialComplex([(1, 2), (3,)])


def test_declared_isolated_vertices_become_singletons():
    x = complex_from_obj({"vertices": [1, 2, 5], "facets": [[1, 2]]})
    assert (5,) in x


def test_load_instance_dispatch(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"foo": 1}))
    with pytest.raises(ValueError):
        load_instance(str(bad))


def test_obj_round_trips():
    x = v6f10_6()
    assert complex_from_obj(complex_to_obj(x)) == x
    h = Hypergraph(5, [(1, 2, 3), (4, 5)])
    assert hypergraph_from_obj(hypergraph_to_obj(h)) == h


# -- reports ---------------------------------------------------------------

def test_report_is_byte_identical():
    x = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    a = report_json(compute(x, ["C", "M0", "leray"]))
    b = report_json(compute(x, ["C", "M0", "leray"]))
    assert a == b


def test_report_values_on_three_cycle():
    x = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    report = compute(x, ["C", "M0", "M1", "leray", "betti", "d_mes"])
    assert report["values"]["C"] == 2
    assert report["values"]["M0"] == 2
    assert report["values"]["leray"] == 2
    assert report["values"]["betti"]["ranks"] == [0, 1]
    assert report["budget"]["exhausted"] == []


def test_report_certificates_replay():
    x = v6f10_6()
    report = compute(x, ["C"])
    cert = certificate_from_obj(report["witnesses"]["collapse_certificate"])
    assert cert.replay(x)
    assert cert.claimed_d == report["values"]["C"] == 2


def test_report_hypergraph_invariants():
    h = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    report = compute(h, ["gamma_i", "gamma_E", "nc_C", "nc_d"])
    assert report["values"]["gamma_i"] == 1
    assert report["values"]["gamma_E"] == 1
    assert report["values"]["nc_C"] <= report["values"]["nc_d"]
    assert report["instance"]["format"] == "hypergraph"


def test_report_rejects_unknown_invariant():
    with pytest.raises(KeyError):
        compute(SimplicialComplex([(1,)]), ["nope"])


def test_report_rejects_a_bare_string_for_its_names():
    # a string was read letter by letter: "C" ran C, and "M0" and "all"
    # named the unknown invariants ['M', '0'] and ['a', 'l', 'l']
    for which in ("C", "M0", "all"):
        with pytest.raises(TypeError, match="list of invariant names"):
            compute(SimplicialComplex([(1,)]), which)


def test_report_takes_its_names_as_a_list_or_a_tuple_only():
    """An iterator was used up by the unknown-name check, so
    `iter(["C"])` gave an empty report, and a set, frozenset or dict
    failed with AttributeError (no `count`).  A set cannot be taken as it
    is: the report follows the order of its names, and a set of strings
    is ordered differently in each process."""
    x = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    for which in (iter(["C"]), {"C"}, frozenset(["C"]), {"C": 1}):
        with pytest.raises(TypeError, match=type(which).__name__):
            compute(x, which)
    assert compute(x, ("C", "M0")) == compute(x, ["C", "M0"])
    assert compute(x, ("all",)) == compute(x, ["all"])


def test_report_rejects_duplicate_invariants():
    """A repeated name would be reported once but computed, and its budget
    counted, twice: it is refused before anything runs."""
    with pytest.raises(KeyError, match=r"duplicate invariant\(s\) \['C'\]"):
        compute(v6f10_6(), ["C", "leray", "C"])
    h = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(KeyError, match=r"\['gamma_i', 'nc_C'\]"):
        compute(h, ["nc_C", "gamma_i", "nc_C", "gamma_i"])


def test_report_budget_exhaustion_is_flagged():
    report = compute(v6f10_6(), ["C"], budget_limit=1)
    assert report["budget"]["exhausted"] == ["C"]
    assert "C" not in report["values"]


def test_report_records_isolated_vertices_as_not_applicable(tmp_path):
    h = Hypergraph(4, [(1, 2), (2, 3)])
    report = compute(h)
    gammas = ["gamma_E", "gamma_i", "gamma_si", "gamma_tilde"]
    assert sorted(report["not_applicable"]) == gammas
    assert all(report["not_applicable"][g] == "isolated vertices [4]"
               for g in gammas)
    assert sorted(report["values"]) == ["nc_C", "nc_d", "nc_leray"]
    inst = tmp_path / "h.json"
    inst.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3]]}))
    assert main(["compute", str(inst),
                 "--out", str(tmp_path / "r.json")]) == EXIT_OK


def test_report_records_non_pure_complexes_as_not_applicable():
    report = compute(SimplicialComplex([(1, 2, 3), (3, 4)]))
    assert sorted(report["not_applicable"]) == [
        "kvd0", "kvd1", "kvd2", "shellable"]
    assert report["values"]["cohen_macaulay"] is False
    assert report["values"]["C"] == 1
    assert report["budget"]["exhausted"] == []


def test_report_on_an_empty_nc_leaves_out_only_nc_d():
    # the one edge is all of V, so NC(H) is the empty complex
    report = compute(Hypergraph(2, [(1, 2)]))
    assert report["not_applicable"] == {
        "nc_d": "NC(H) is empty; no facet order"}
    assert report["values"]["nc_C"] == 0
    assert report["values"]["nc_leray"] == 0
    cert = report["witnesses"]["nc_collapse_certificate"]
    assert cert == {"claimed_d": 0, "steps": []}
    assert report["budget"]["exhausted"] == []


def test_report_on_an_edgeless_hypergraph_records_every_invariant():
    report = compute(Hypergraph(3, []))
    assert report["values"] == {} and report["witnesses"] == {}
    na = report["not_applicable"]
    assert sorted(na) == sorted(reports.HYPERGRAPH_INVARIANTS)
    for name in ("nc_C", "nc_d", "nc_leray"):
        assert na[name].startswith("edgeless hypergraph")


@pytest.mark.parametrize("obj", [{"n": 2, "edges": [[1, 2]]},
                                 {"n": 3, "edges": []}])
def test_cli_compute_on_hypergraphs_without_an_nc(tmp_path, obj):
    inst = tmp_path / "h.json"
    inst.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert main(["compute", str(inst), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert "nc_d" in report["not_applicable"]


def test_report_leray_above_the_brute_force_vertex_cap():
    path = SimplicialComplex([(i, i + 1) for i in range(1, 16)])
    assert len(path.vertices) == 16
    assert compute(path, ["leray"])["values"] == {"leray": 1}


def test_verify_passes_on_registered_theorems():
    for theorem in ("tancer", "euler", "open-faces-simplex"):
        summary = verify(theorem, GeneratorSpec(kind=THEOREMS[theorem][0],
                                                seed=1, n=5, m=5), trials=10)
        assert summary["fails"] == 0
        assert summary["passes"] + summary["skips"] == 10


def test_verify_skips_non_pure_trials_of_the_decomposability_theorems(
        tmp_path):
    """k-vertex decomposability is defined for pure complexes, so a
    non-pure trial is outside kvd-equality's and shed-leray's hypotheses:
    it is a skip, not an error that aborts the run."""
    spec = GeneratorSpec(kind="random-complex", seed=3)
    assert any(not reports._trial_instance(spec, i).is_pure()
               for i in range(5))
    for theorem in ("kvd-equality", "shed-leray"):
        summary = verify(theorem, spec, trials=5)
        assert summary["fails"] == 0 and summary["skips"] > 0, theorem
        assert summary["passes"] + summary["skips"] == 5, theorem
        out = tmp_path / f"{theorem}.json"
        assert main(["verify", "--theorem", theorem, "--kind",
                     "random-complex", "--trials", "5", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text()) == summary


def test_verify_skips_trials_above_the_induced_oracle_vertex_cap(tmp_path):
    """The induced-subcomplex oracles read 2^n subcomplexes and refuse more
    than 14 vertices, so a trial that large (for cm-equivalence, its pure
    skeleton) is a skip, not an error that aborts the run."""
    spec = GeneratorSpec(kind="random-complex", n=16, m=40, max_size=2,
                         seed=0)
    for theorem in ("leray-methods", "cm-equivalence"):
        summary = verify(theorem, spec, trials=3)
        assert summary == {"theorem": theorem, "trials": 3,
                           "passes": 0, "fails": 0, "skips": 3}
        out = tmp_path / f"{theorem}.json"
        assert main(["verify", "--theorem", theorem, "--trials", "3",
                     "--n", "16", "--m", "40", "--max-size", "2",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text()) == summary


def test_link_del_commute_catches_a_link_that_ignores_the_face(monkeypatch):
    """The probe runs on the facet-mask kernels, so a `_link` that takes
    F - sigma of every facet F, holding sigma or not, is a counterexample.
    So is a `_deletion` that drops the new F - v faces: the link of tau in
    it still equals that deletion of the link of tau, but a nonempty tau
    disjoint from sigma is then missing from del(sigma)."""
    spec = GeneratorSpec(kind="random-complex", seed=0)
    with monkeypatch.context() as m:
        m.setattr(
            reports, "_link",
            lambda facets, s: tuple(sorted({f & ~s for f in facets} - {0})))
        summary = verify("link-del-commute", spec, trials=5)
    assert summary["fails"] == 1
    assert summary["counterexample"]["detail"].startswith(
        "link/deletion commutativity fails for Face{")
    monkeypatch.setattr(reports, "_deletion",
                        lambda facets, s: tuple(f for f in facets if s & ~f))
    summary = verify("link-del-commute", spec, trials=5)
    assert summary["fails"] == 1
    assert summary["counterexample"]["detail"] == (
        "Face{3,6} is not in del Face{2}")


def test_nc_bound_builds_nc_once_per_trial(monkeypatch):
    calls = []
    real = hypergraphs.non_cover_complex

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(hypergraphs, "non_cover_complex", counted)
    monkeypatch.setattr(reports, "non_cover_complex", counted)
    assert verify("nc-bound", trials=5)["passes"] == 5
    assert len(calls) == 5


def test_nc_bound_summaries_and_the_empty_nc_case():
    for seed in range(20):
        spec = GeneratorSpec(kind="random-hypergraph", seed=seed)
        assert verify("nc-bound", spec, trials=5) == {
            "theorem": "nc-bound", "trials": 5,
            "passes": 5, "fails": 0, "skips": 0}
    # NC(H) is empty: the check reduces to 0 <= n - gamma_i - 1
    h = Hypergraph(2, [[1, 2]])
    assert reports._thm_nc_bound(h, random.Random(0), Budget()) == "pass"


@pytest.mark.parametrize("theorem", [
    "nc-bound", "gamma-si-eq", "neighbor-inequality", "mes-equal",
    "kim-kim", "gamma-monotone"])
def test_hypergraph_probes_draw_on_the_trial_budget(theorem):
    """Their cover walks and domination scans spend the trial's budget, so
    a one-node budget runs out."""
    with pytest.raises(BudgetExceededError):
        verify(theorem, trials=3, budget_limit=1)


def test_leray_methods_records_a_disagreement_as_a_counterexample(monkeypatch):
    monkeypatch.setattr(reports, "_leray_induced", lambda x: 99)
    summary = verify("leray-methods", trials=3)
    assert (summary["passes"], summary["fails"]) == (0, 1)
    cx = summary["counterexample"]
    assert cx["trial"] == 0
    assert cx["detail"].startswith("Leray by links ")
    assert cx["detail"].endswith(" != induced 99")


def test_passing_probes_format_no_detail(monkeypatch):
    """A check builds its counterexample text only when it fails: passing
    trials of every theorem print no face, complex or ordering."""
    from collapsekit import Face, FacetOrdering

    def refuse(self):
        raise AssertionError("a passing check formatted its detail")

    for cls in (Face, SimplicialComplex, FacetOrdering):
        monkeypatch.setattr(cls, "__repr__", refuse)
    for theorem, (kind, _) in THEOREMS.items():
        summary = verify(theorem, GeneratorSpec(kind=kind, seed=2, n=5, m=6),
                         trials=2)
        assert summary["fails"] == 0, theorem
    monkeypatch.undo()
    monkeypatch.setattr(reports, "_leray_induced", lambda x: 99)
    assert verify("leray-methods", trials=1)["fails"] == 1


def test_verify_unknown_theorem():
    with pytest.raises(KeyError):
        verify("flat-earth")


def test_conjecture_search_finds_the_golden_gap():
    spec = GeneratorSpec(kind="named-example", name="v6f10-6")
    found = conjecture_search(1, spec, trials=1)
    assert len(found) == 1
    assert found[0]["M0"] == 3 and found[0]["M1"] == 2


def test_conjecture_search_runs_a_seedless_kind_once():
    spec = GeneratorSpec(kind="named-example", name="v6f10-6")
    found = conjecture_search(1, spec, trials=5)
    assert [c["trial"] for c in found] == [0]


def test_conjecture_search_raises_when_a_chain_does_not_repeat(monkeypatch):
    chains = iter([[3, 2], [3, 3]])
    monkeypatch.setattr(reports, "mk_chain", lambda x, k, budget: next(chains))
    spec = GeneratorSpec(kind="named-example", name="v6f10-6")
    with pytest.raises(RuntimeError, match="not reproducible"):
        conjecture_search(1, spec, trials=1)


def test_conjecture_search_rejects_k_zero():
    with pytest.raises(ValueError):
        conjecture_search(0)


# -- CLI -------------------------------------------------------------------

def test_cli_generate_and_compute(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "report.json"
    assert main(["generate", "--kind", "named-example",
                 "--name", "three-cycle", "--out", str(inst)]) == EXIT_OK
    assert main(["compute", str(inst), "--invariants", "C,M0,leray",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["values"] == {"C": 2, "M0": 2, "leray": 2}


def test_cli_compute_all_on_hypergraph(tmp_path):
    inst = tmp_path / "h.json"
    out = tmp_path / "report.json"
    assert main(["generate", "--kind", "random-graph", "--seed", "7",
                 "--out", str(inst)]) == EXIT_OK
    assert main(["compute", str(inst), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["values"]["gamma_i"] == report["values"]["gamma_si"]


def test_cli_verify(tmp_path):
    out = tmp_path / "summary.json"
    rc = main(["verify", "--theorem", "euler", "--trials", "5",
               "--seed", "2", "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads(out.read_text())
    assert summary["passes"] == 5 and summary["fails"] == 0


def test_cli_search(tmp_path):
    out = tmp_path / "found.json"
    rc = main(["search", "--k", "1", "--trials", "3", "--n", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    json.loads(out.read_text())  # valid JSON list


def test_cli_budget_exit(tmp_path):
    inst = tmp_path / "x.json"
    main(["generate", "--kind", "named-example", "--name", "v6f10-6",
          "--out", str(inst)])
    rc = main(["compute", str(inst), "--invariants", "C", "--budget", "1",
               "--out", str(tmp_path / "r.json")])
    assert rc == EXIT_BUDGET


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "missing.json")]) == EXIT_USAGE
    assert main(["verify", "--theorem", "nope"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv, named", [
    (["generate", "--kind", "random-graph", "--n", "1"], "n >= 2, got 1"),
    (["generate", "--kind", "random-kvd", "--m", "0"], "m >= 1, got 0"),
    (["generate", "--kind", "random-kvd", "--max-size", "1"],
     "max_size >= 2, got 1"),
    (["generate", "--kind", "random-hypergraph", "--n", "0"],
     "n >= 1, got 0"),
    (["generate", "--kind", "random-complex", "--max-size", "0"],
     "max_size >= 1, got 0"),
    (["verify", "--theorem", "claim", "--n", "0"], "n >= 1, got 0"),
    # the wrong type of instance for the run; exit 1 would read as a
    # counterexample
    (["verify", "--theorem", "nc-bound", "--kind", "random-complex",
      "--trials", "1"], "theorem nc-bound runs on hypergraphs; "
                        "kind random-complex"),
    (["verify", "--theorem", "euler", "--kind", "random-hypergraph"],
     "theorem euler runs on simplicial complexes; kind random-hypergraph"),
    (["search", "--k", "1", "--kind", "random-hypergraph"],
     "search runs on simplicial complexes; kind random-hypergraph"),
    (["verify", "--theorem", "euler", "--trials", "-3"], "trials must be >= 0"),
    (["search", "--k", "1", "--trials", "-2"], "trials must be >= 0"),
    # above the 128-bit label range on every seed, before any trial
    (["verify", "--theorem", "euler", "--kind", "random-complex", "--n",
      "128"], "random-complex needs n <= 127, got 128"),
    # the seedless kinds, also with no trial to run
    (["verify", "--theorem", "nc-bound", "--kind", "star-family", "--n", "1",
      "--trials", "0"], "star family needs n >= 2"),
    (["verify", "--theorem", "nc-bound", "--kind", "star-family", "--n", "3",
      "--leaves", "1", "0", "1", "--trials", "0"],
     "need one positive leaf count per star"),
    (["verify", "--theorem", "nc-bound", "--kind", "star-family", "--n",
      "64", "--trials", "0"], "star-family needs n + sum(leaves) <= 127, "
                              "got 128"),
    (["verify", "--theorem", "euler", "--kind", "named-example", "--name",
      "nope", "--trials", "0"], "unknown named example 'nope'"),
])
def test_cli_rejects_degenerate_generator_specs(capsys, argv, named):
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and named in line


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "euler", "--kind", "named-example",
     "--name", "triangle", "--trials", "2"],
    ["verify", "--theorem", "nc-bound", "--kind", "star-family",
     "--trials", "1"],
    ["verify", "--theorem", "euler", "--trials", "0"],
])
def test_cli_runs_a_kind_of_the_right_type(tmp_path, argv):
    out = tmp_path / "summary.json"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["fails"] == 0


def test_cli_names_an_unknown_invariant_unquoted(tmp_path, capsys):
    inst = tmp_path / "x.json"
    main(["generate", "--kind", "named-example", "--name", "triangle",
          "--out", str(inst)])
    capsys.readouterr()
    assert main(["compute", str(inst), "--invariants", "C,foo"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: unknown invariant(s) ['foo']")


def test_cli_names_duplicate_invariants(tmp_path, capsys):
    inst = tmp_path / "x.json"
    main(["generate", "--kind", "named-example", "--name", "v6f10-6",
          "--out", str(inst)])
    capsys.readouterr()
    assert main(["compute", str(inst), "--invariants", "C,C"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: duplicate invariant(s) ['C']\n"


@pytest.mark.parametrize("obj, named", [
    ({"n": "3", "edges": [[1, 2], [2, 3]]}, "'3'"),
    ({"n": 3.0, "edges": [[1, 2], [2, 3]]}, "3.0"),
    ({"n": 3, "edges": [[1, "2"]]}, "[1, '2']"),
    ({"facets": [[1, "a"]]}, "[1, 'a']"),
    ({"facets": 5}, "5"),
    ({"n": 128, "edges": [[1, 2]]}, "128"),
    # a missing field is named, not reported as a bare KeyError
    ({"edges": [[1, 2]]}, "no 'n' field"),
    ({"n": 3}, "no 'edges' field"),
    ({"vertices": [1, 2]}, "no 'facets' field"),
])
def test_cli_compute_rejects_malformed_files(tmp_path, capsys, obj, named):
    # exit 1 means "counterexample found", so bad input must exit 2
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["compute", str(inst)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and named in line


def test_cli_field_flag(tmp_path):
    inst = tmp_path / "x.json"
    out = tmp_path / "r.json"
    main(["generate", "--kind", "named-example", "--name", "tetra-boundary",
          "--out", str(inst)])
    assert main(["compute", str(inst), "--invariants", "betti",
                 "--field", "gf2", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["values"]["betti"]["field"] == "GF2"
    assert report["values"]["betti"]["ranks"] == [0, 0, 1]


@pytest.mark.parametrize("field", ["4", "gf9"])
@pytest.mark.parametrize("which", ["betti", "C"])
def test_cli_rejects_a_non_prime_field(tmp_path, capsys, field, which):
    inst = tmp_path / "x.json"
    out = tmp_path / "r.json"
    main(["generate", "--kind", "named-example", "--name", "three-cycle",
          "--out", str(inst)])
    capsys.readouterr()
    assert main(["compute", str(inst), "--invariants", which,
                 "--field", field, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: not a valid prime field: {field!r}")
    assert not out.exists()


def test_compute_rejects_a_non_prime_field_before_any_invariant():
    with pytest.raises(ValueError, match="not a valid prime field: 6"):
        compute(SimplicialComplex([(1, 2)]), ["C"], field=6)
