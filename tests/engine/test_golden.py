"""Bit-identity pins for both sweep paths on the ENGINE_CONFIG snapshot.

``FIGURE_GOLDEN`` and ``TABLE3_GOLDEN`` were captured at the commit
that introduced fusion, running the *default* (per-point) path — they
pin the historical bit-exact output.  ``FAMILY_GOLDEN`` was captured
from the first family-path release, before its execution body was
folded into the one sweep loop.  Any refactor of the evaluate/sweep
stack must keep all three byte-identical.
"""

import math

import pytest

from repro.engine.plan import figure_plan, fused_families
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.experiments.tables import table3_rows

NAN = float("nan")

# (mechanism, alpha, epsilon, theta, feasible, overall, by_stratum) per
# plan point, in plan order, for the default unfused path.
FIGURE_GOLDEN = {
    "figure-1": (
        ("log-laplace", 0.05, 0.5, None, True, 3.2948889911885217,
         (2.6348621647322963, 5.345337787469996, 2.956614398712302,
          3.179415328225468)),
        ("log-laplace", 0.05, 2.0, None, True, 0.7915586827448104,
         (0.4327559469442157, 1.0582625619461898, 0.703615837146373,
          0.9524464089514192)),
        ("log-laplace", 0.2, 0.5, None, True, 12.813048729439613,
         (2.4079379008030206, 23.26010206766221, 9.255189821241212,
          18.518092194457818)),
        ("log-laplace", 0.2, 2.0, None, True, 1.6551657497488395,
         (0.7645153603207474, 2.513045707678587, 1.1237513535153907,
          2.7316808734850357)),
        ("smooth-laplace", 0.05, 0.5, None, True, 2.88431905197016,
         (2.133352744331371, 2.852661865195066, 3.2437632090446096,
          2.182413690779015)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.5639849646746907,
         (0.6250003511254002, 0.6521977416304992, 0.49663587884258115,
          0.6696987290998206)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 2.0933020437379493,
         (1.6203474791482095, 1.6262193205550268, 2.5444926217970205,
          1.3327925707196366)),
        ("smooth-gamma", 0.05, 0.5, None, True, 8.145472845209618,
         (4.489748304751021, 13.332577088615599, 7.599176892746769,
          7.5572472373304524)),
        ("smooth-gamma", 0.05, 2.0, None, True, 1.0869875746541064,
         (0.8962030335942939, 1.5251738861753095, 0.9531400939838445,
          1.228499511364151)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 4.9555096029280445,
         (1.7651706608760893, 4.875835824829607, 5.362792739184675,
          4.748421815510714)),
    ),
    "figure-2": (
        ("log-laplace", 0.05, 0.5, None, True, 0.8188676394727152,
         (0.4453938776124895, 0.6614315358260151, 0.8430246275071229,
          0.8973836227938263)),
        ("log-laplace", 0.05, 2.0, None, True, 0.9624073545036538,
         (0.7857420293729768, 0.9227600717790729, 0.9560720629623609,
          0.9839921477923133)),
        ("log-laplace", 0.2, 0.5, None, True, 0.6565235606852174,
         (0.5882560647712125, 0.551364590880269, 0.6811243354315268,
          0.6474874471334142)),
        ("log-laplace", 0.2, 2.0, None, True, 0.9298099842627018,
         (0.9202005584635395, 0.8975283510663637, 0.9289503046317482,
          0.933099256903926)),
        ("smooth-laplace", 0.05, 0.5, None, True, 0.8526458968954483,
         (0.7815402003388967, 0.6884655223039176, 0.8385364217141689,
          0.922679050757639)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.9740862764026421,
         (0.8613749519864184, 0.9446447274992795, 0.9701623819531096,
          0.9862574099980279)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 0.9476331825247977,
         (0.8025493455092971, 0.8946962191496312, 0.9475408621387564,
          0.969154680344883)),
        ("smooth-gamma", 0.05, 0.5, None, True, 0.622325800504407,
         (0.39917375823760853, 0.3901905381643931, 0.612008372764695,
          0.7086872810578027)),
        ("smooth-gamma", 0.05, 2.0, None, True, 0.9405260557564565,
         (0.7773383713048165, 0.8918640872328985, 0.9384561560430987,
          0.9705893464085023)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 0.7490609850932795,
         (0.42858656147616914, 0.725283237221442, 0.74279204237225,
          0.7528221396991416)),
    ),
    "finding-6": (
        ("truncated-laplace", None, 0.5, 20, True, 18.072128002300985,
         (25.730597132985178, 25.301056093554283, 14.768976086915604,
          20.54321026906674)),
        ("truncated-laplace", None, 2.0, 20, True, 10.003769126627423,
         (6.271899742592391, 10.168518403654911, 10.756652121198496,
          8.927867531501791)),
    ),
}

# The same form for the fused="family" path (one unit draw per
# mechanism's whole alpha x epsilon grid).
FAMILY_GOLDEN = {
    "figure-1": (
        ("log-laplace", 0.05, 0.5, None, True, 2.6359764262719514,
         (1.9684675972163233, 4.030429537850033, 2.100520458626123,
          3.375181197881018)),
        ("log-laplace", 0.05, 2.0, None, True, 0.6278683035704976,
         (0.5159783816670481, 0.9823635982269295, 0.4944484146344407,
          0.79507558495232)),
        ("log-laplace", 0.2, 0.5, None, True, 11.039011841301935,
         (3.613743579274015, 11.48523591840873, 9.469553008621165,
          16.51708978818338)),
        ("log-laplace", 0.2, 2.0, None, True, 1.5851642854627446,
         (1.0449225812757226, 2.2008338820148543, 1.3142065379115557,
          2.0572891689119284)),
        ("smooth-laplace", 0.05, 0.5, None, True, 2.3498454380098717,
         (2.0526914349807512, 3.033616250694461, 2.2190050495677816,
          2.3750974710311206)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.5874613595024679,
         (0.5131728587451878, 0.7584040626736153, 0.5547512623919454,
          0.5937743677577801)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 1.7666390629348672,
         (1.49613507253326, 2.0577958870194695, 1.7587013676201462,
          1.692446275973205)),
        ("smooth-gamma", 0.05, 0.5, None, True, 7.030793542754428,
         (3.8484853016299514, 9.583538958967301, 6.358174677061927,
          8.086322465338098)),
        ("smooth-gamma", 0.05, 2.0, None, True, 1.0251585985102263,
         (0.5611468711482785, 1.397373896445565, 0.9270841763995858,
          1.179065059336121)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 4.640714178226714,
         (1.4769349125937337, 4.666864880027208, 4.543240259319308,
          5.633662944093537)),
    ),
    "figure-2": (
        ("log-laplace", 0.05, 0.5, None, True, 0.8297843048008937,
         (0.6176688680097732, 0.7389289637293357, 0.836190040669595,
          0.8591006915172501)),
        ("log-laplace", 0.05, 2.0, None, True, 0.966951240926903,
         (0.8403658068160178, 0.9393666634726414, 0.9716424069196868,
          0.9790463253098365)),
        ("log-laplace", 0.2, 0.5, None, True, 0.664078098919034,
         (0.21429328073808457, 0.5706745812216281, 0.7179324360230727,
          0.658171933870368)),
        ("log-laplace", 0.2, 2.0, None, True, 0.9405321607861998,
         (0.7143109357936153, 0.8945674858806888, 0.9527269658834299,
          0.9489938467140232)),
        ("smooth-laplace", 0.05, 0.5, None, True, 0.8608632669299692,
         (0.7605310551684963, 0.7725283469233002, 0.8600028000911933,
          0.9196964555201148)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.965729362831131,
         (0.8739804390886586, 0.9114315441121422, 0.9699457929336104,
          0.9832370603904086)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 0.9594446707839268,
         (0.8739804390886586, 0.8989444170247302, 0.9664803686216243,
          0.9756106776311694)),
        ("smooth-gamma", 0.05, 0.5, None, True, 0.5750876967918461,
         (0.35295363886272757, 0.30625644681395287, 0.6099748425260643,
          0.6812776083686565)),
        ("smooth-gamma", 0.05, 2.0, None, True, 0.9336910388852466,
         (0.6680908164187342, 0.8681771657474981, 0.9244981970087106,
          0.9737229591264074)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 0.7309020101953005,
         (0.5798524067030524, 0.5364315316829515, 0.7402411050314825,
          0.7847245824296218)),
    ),
    "finding-6": (
        ("truncated-laplace", None, 0.5, 20, True, 18.072128002300985,
         (25.730597132985178, 25.301056093554283, 14.768976086915604,
          20.54321026906674)),
        ("truncated-laplace", None, 2.0, 20, True, 10.003769126627423,
         (6.271899742592391, 10.168518403654911, 10.756652121198496,
          8.927867531501791)),
    ),
}

# (mechanism, epsilon) -> (l1_ratio, spearman); alpha=0.1, n_trials=2.
TABLE3_GOLDEN = {
    ("log-laplace", 1.0): (2.1717565065397153, 0.861473769904302),
    ("log-laplace", 2.0): (1.0652346714437761, 0.9533204538042617),
    ("log-laplace", 4.0): (0.6197295070570797, 0.9787941264818549),
    ("smooth-laplace", 1.0): (2.428029126389487, 0.9346852865863031),
    ("smooth-laplace", 2.0): (1.5427569573479891, 0.9707285100438112),
    ("smooth-laplace", 4.0): (0.3727678112701571, 0.9832656246952904),
    ("smooth-gamma", 1.0): (4.6678977564594, 0.6806584875548092),
    ("smooth-gamma", 2.0): (2.1400787505957712, 0.9096276280783625),
    ("smooth-gamma", 4.0): (1.2804476865810697, 0.9617724314103475),
}


def same_float(a, b):
    """Exact equality with NaN == NaN (golden comparisons are bit-level)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def run_figure_plan(session, name, **options):
    plan = figure_plan(
        name,
        session.config,
        fingerprint=session.snapshot_fingerprint,
        seed=session.config.seed,
    )
    return plan, run_plan(plan, session, merge_spend=False, **options)


def assert_matches_golden(name, points, golden):
    assert len(points) == len(golden)
    for point, expected in zip(points, golden):
        mech, alpha, eps, theta, feasible, overall, by_stratum = expected
        assert point.mechanism == mech
        assert same_float(point.alpha, alpha)
        assert point.epsilon == eps
        assert point.theta == theta
        assert point.feasible == feasible
        assert same_float(point.overall, overall), (
            f"{name} {mech} α={alpha} ε={eps}: "
            f"{point.overall!r} != {overall!r}"
        )
        assert len(point.by_stratum) == len(by_stratum)
        for got, want in zip(point.by_stratum, by_stratum):
            assert same_float(got, want)


class TestDefaultPathGolden:
    """The unfused path must stay byte-identical to the pre-fusion
    engine: every figure value pinned at full float precision."""

    @pytest.mark.parametrize("name", sorted(FIGURE_GOLDEN))
    def test_figure_values_bit_identical(self, session, name):
        _, outcome = run_figure_plan(session, name)
        assert_matches_golden(name, outcome.points, FIGURE_GOLDEN[name])

    def test_table3_values_bit_identical(self, session):
        rows = table3_rows(session, n_trials=2)
        assert len(rows) == len(TABLE3_GOLDEN)
        for row in rows:
            l1, rho = TABLE3_GOLDEN[(row["mechanism"], row["epsilon"])]
            assert row["feasible"] is True
            assert same_float(row["l1_ratio"], l1)
            assert same_float(row["spearman"], rho)

    def test_profile_breakdown_populated(self, session):
        _, outcome = run_figure_plan(session, "figure-1", profile=True)
        prof = outcome.profile
        assert set(prof) == {
            "draw_s", "reduce_s", "store_s", "other_s", "total_s"
        }
        assert prof["total_s"] > 0
        assert prof["draw_s"] >= 0 and prof["reduce_s"] >= 0
        assert prof["total_s"] >= prof["draw_s"] + prof["reduce_s"]


class TestFamilyPathGolden:
    """The family path must stay byte-identical to its first release,
    including a member-masked resume."""

    @pytest.mark.parametrize("name", sorted(FAMILY_GOLDEN))
    def test_figure_values_bit_identical(self, session, name):
        _, outcome = run_figure_plan(session, name, fused="family")
        assert_matches_golden(name, outcome.points, FAMILY_GOLDEN[name])

    @pytest.mark.parametrize("name", ["figure-1", "figure-2"])
    def test_masked_resume_bit_identical(self, session, name, tmp_path):
        """Half of every family's members pre-stored: the resumed run
        reduces only the other half and lands on the same values."""
        plan, _ = run_figure_plan(
            session, name, fused="family", store=ResultStore(tmp_path)
        )
        store = ResultStore(tmp_path)
        families, _ = fused_families(plan)
        dropped = 0
        for family in families:
            for index in family.indices[1::2]:
                key = family.member_key(plan.points[index], plan.fingerprint)
                store.path_for(key).unlink()
                dropped += 1
        _, resumed = run_figure_plan(
            session, name, fused="family", store=store, resume=True
        )
        assert resumed.computed == dropped == len(plan.points) // 2
        assert_matches_golden(name, resumed.points, FAMILY_GOLDEN[name])
