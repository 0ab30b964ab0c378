"""Golden CLI reports: every verb's default JSON output, byte for byte.

Each case runs one CLI command on a fixture and compares the exit code and
the SHA-256 of its standard output with the digest recorded when the case
was added.  A change that alters any report, by as much as one byte, fails
here and has to say why it changes the output (and record new digests).

The library digests do the same for the library's own results on
fixed-seed draws: ``solve_glp`` (min and max) on 1,000 acceptance draws
with its ``solved_on`` and ``lineality_basis``, ``enumerate_vertices`` on
degenerate draws, and ``structure``, ``remove_redundant`` and
``reconstruct_check`` on pointed draws.  Each is hashed through the JSON
forms the CLI prints, never through a repr.
"""
import contextlib
import hashlib
import io
import json
import random

import pytest

from polycone import (
    enumerate_vertices, polyhedron_to_dict, reconstruct_check, remove_redundant, solve_glp, structure,
    trajectory_to_dict,
)
from polycone.cli import _glp_dict, _vertex_dict, main
from polycone.rationals import format_vector

from helpers import (
    FLAT, HALF_LINE, QUADRANT, STRIP, TRIANGLE, Y1, Y2, random_cost, random_degenerate_polyhedron,
    random_feasible_pointed, random_polyhedron,
)
from families import (
    constant_triangle_trajectory,
    ex31_trajectory,
    footnote_trajectory,
    pyramid_trajectory,
    remark_trajectory,
    segment_trajectory,
)

EMPTY = {"n": 1, "constraints": [{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "0"}]}

# fixture name -> (its JSON, the cost vectors it is solved for)
POLYHEDRA = {
    "triangle": (polyhedron_to_dict(TRIANGLE), ("1,1", "-1,2")),
    "quadrant": (polyhedron_to_dict(QUADRANT), ("1,2", "-1,0")),
    "y1": (polyhedron_to_dict(Y1), ("-1,-4",)),
    "halfline": (polyhedron_to_dict(HALF_LINE), ("1,0", "0,1")),
    "strip": (polyhedron_to_dict(STRIP), ("0,1", "1,0")),
    "flat": (polyhedron_to_dict(FLAT), ("1,1,1", "-1,0,1")),
    "empty": (EMPTY, ("1",)),
    "union": ({"pieces": [polyhedron_to_dict(Y1), polyhedron_to_dict(Y2)]}, ("-1,-4",)),
}
TRAJECTORIES = {
    "remark": trajectory_to_dict(remark_trajectory()),
    "footnote": trajectory_to_dict(footnote_trajectory()),
    "ex31": trajectory_to_dict(ex31_trajectory()),
    "constant_triangle": trajectory_to_dict(constant_triangle_trajectory()),
    "pyramid": trajectory_to_dict(pyramid_trajectory()),
    "segment": trajectory_to_dict(segment_trajectory()),
}
CONTAINS = [
    ("quadrant", "triangle"),
    ("triangle", "quadrant"),
    ("triangle", "y1"),
    ("quadrant", "halfline"),
    ("strip", "halfline"),
    ("halfline", "strip"),
]


def _cases():
    """(case id, argv over fixture names) for every golden case."""
    for name, (_, costs) in POLYHEDRA.items():
        if name != "union":
            for verb in ("vertices", "bounded", "structure"):
                yield f"{verb} {name}", [verb, name]
        for cost in costs:
            for sense in ("min", "max"):
                yield f"solve {name} {cost} {sense}", ["solve", name, "--cost", cost, "--sense", sense]
            yield f"sensitivity {name} {cost}", ["sensitivity", name, "--cost", cost]
    for outer, inner in CONTAINS:
        yield f"contains {outer} {inner}", ["contains", outer, inner]
    for name in TRAJECTORIES:
        for verb in ("limit", "track", "argmax", "boundary"):
            yield f"{verb} {name}", [verb, name]


def write_fixtures(directory) -> dict:
    """Write every fixture as JSON into directory; name -> path."""
    files = {}
    for name, data in ({k: poly for k, (poly, _) in POLYHEDRA.items()} | TRAJECTORIES).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)
    return files


def report_digest(argv, files) -> tuple[int, str]:
    """The exit code and the SHA-256 of stdout of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([files.get(arg, arg) for arg in argv])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


DIGESTS = {
    'vertices triangle': (0, 'f5dde972a67a80e7abc8daacac724a406082d85dc858c0d24586e34fa63686c9'),
    'bounded triangle': (0, '0c9d16c96428cbb48d34e751eb91d4cff19eee9d610e12ee93d85854e03aeeb3'),
    'structure triangle': (0, 'fc6519b5b325fd11f491b20f88d4654bb7421ae2d157ea4282bbff55fe0454f9'),
    'solve triangle 1,1 min': (0, 'a6b98f6f1aa8ffd63a11aaac3e5aeb0f1cefc415c8fc8604afc0c12ffca57d60'),
    'solve triangle 1,1 max': (0, '02fc8dc1bcc7eacc7d931ded6fdab19b39588a756cb8b8a07623919689c2cc21'),
    'sensitivity triangle 1,1': (0, 'df6d2dbd23862006b87591cec79719cacf842cb3cd81e6b305ab8467c0e913a9'),
    'solve triangle -1,2 min': (0, 'a8480842ca18f7205f7001296c0a6ee808d37685033c16100bedb08689f750d3'),
    'solve triangle -1,2 max': (0, '8b8a984700f4cd9d92ab26932ff30395c2317213c150075a71e652306f294d76'),
    'sensitivity triangle -1,2': (0, '982d3c9e846451460592589378f00235b3c425c0226fc8d4ef8b21320773bd48'),
    'vertices quadrant': (0, 'bf24ef362c569bb429151297cc0bac3d5ef8ed5797642788032f23a08b870859'),
    'bounded quadrant': (0, 'b1ee8d24131eb23bf8be15e99f904e3a30fdcb6b580565439d8e8dce450df4eb'),
    'structure quadrant': (0, '6e0a589fea1223a2035bd3e4a4a4790aba67bf548ab6f5603dc512e1ad68ca0d'),
    'solve quadrant 1,2 min': (0, '9c8d3c93eb36ce57142ff461e3b263487160560f3d9b29a318934bfab6ad8162'),
    'solve quadrant 1,2 max': (0, '91d2d935ef48ec762c714c4394de8dde53da0a3ed25abcba14bb0ad38ce3fa40'),
    'sensitivity quadrant 1,2': (0, 'df6d2dbd23862006b87591cec79719cacf842cb3cd81e6b305ab8467c0e913a9'),
    'solve quadrant -1,0 min': (0, '5050497d8ebd0b0f0648b2470a98c24ac257fa4f7817d3a372d061dd5dcac4f9'),
    'solve quadrant -1,0 max': (0, '5b0aabf59ece390163210b65c42adde9f81faa6f845402dc53ec7a539f612cf3'),
    'sensitivity quadrant -1,0': (2, '857dc7e51ed9389666e91d9bb9101ebb3198e669df116224e28b38c9b2b0f5c1'),
    'vertices y1': (0, 'ba129efa3054e8ae1cbf8561e242c418f596d950eee7a5b4be3701f663bf2c91'),
    'bounded y1': (0, 'b1ee8d24131eb23bf8be15e99f904e3a30fdcb6b580565439d8e8dce450df4eb'),
    'structure y1': (0, '39b40a96450060546dc0d768d69e1d015c40ca865d901fc5ad313dcf035acdad'),
    'solve y1 -1,-4 min': (0, '3f469cde72c2709455332284c3510317d8a790da74dff87b6808b21f7b972528'),
    'solve y1 -1,-4 max': (0, '6385bb07b1a0b1a9e4833e8eb02cdc43f0e772ebae94cfe55fafef415dee4762'),
    'sensitivity y1 -1,-4': (0, '0357c680a707dca5e5c3388bbd2caa7685b621f9a5fdba38766ce5bc3246b14f'),
    'vertices halfline': (0, '3f1991cf9fc7d2e30e1fb96295833c84795eff68dc5317d66e7f5319db0aa06c'),
    'bounded halfline': (0, 'b1ee8d24131eb23bf8be15e99f904e3a30fdcb6b580565439d8e8dce450df4eb'),
    'structure halfline': (0, '9d0b84a6d1aeed7c87f0c18f2784aa3ce411b745e78204c1aebae937445cd094'),
    'solve halfline 1,0 min': (0, '2102943cc09eee957c5dd76916ba36637e81a14d4375e9a0551735480ab73011'),
    'solve halfline 1,0 max': (0, '5050497d8ebd0b0f0648b2470a98c24ac257fa4f7817d3a372d061dd5dcac4f9'),
    'sensitivity halfline 1,0': (0, '1ed3b49b05f9ea0365ea6785ee2ad1d7877dd36d0beb9c33c42c4abd003754bd'),
    'solve halfline 0,1 min': (0, '2527759d25048c49657147d947a063b707e1e83059ffc96539952d47047923ae'),
    'solve halfline 0,1 max': (0, '503663f48e8d8630be3a6bb451693098e2b1fd44c973aad6fded2f3711eac7f9'),
    'sensitivity halfline 0,1': (0, '1ed3b49b05f9ea0365ea6785ee2ad1d7877dd36d0beb9c33c42c4abd003754bd'),
    'vertices strip': (0, '8efe0b36a7fa51651089b950199db43906e781e6f36571f45a766bd5d370d04a'),
    'bounded strip': (0, 'b1ee8d24131eb23bf8be15e99f904e3a30fdcb6b580565439d8e8dce450df4eb'),
    'structure strip': (0, '6ad58939b181de978eaefe2455ece80349a9f9181231262a752b23f3e11ab2f3'),
    'solve strip 0,1 min': (0, '5f7d8652fd77ed2adfd34a208bfa8a323a3100001827a2a1aec4108326824708'),
    'solve strip 0,1 max': (0, '6445d8783bc462ea8e065ad5deaeea7ef3714e388f398cff09d81867d25ae90f'),
    'sensitivity strip 0,1': (0, 'f202feb2e2a920893a570cdecadcf3933344c6e33ac20397b1cb0652e25c2edc'),
    'solve strip 1,0 min': (0, '6385bb07b1a0b1a9e4833e8eb02cdc43f0e772ebae94cfe55fafef415dee4762'),
    'solve strip 1,0 max': (0, '5050497d8ebd0b0f0648b2470a98c24ac257fa4f7817d3a372d061dd5dcac4f9'),
    'sensitivity strip 1,0': (2, '857dc7e51ed9389666e91d9bb9101ebb3198e669df116224e28b38c9b2b0f5c1'),
    'vertices flat': (0, 'd81781cfa4e8925001de6a8831a9f4f9e0bcd8ad740eac012c24e401d888309c'),
    'bounded flat': (0, '0c9d16c96428cbb48d34e751eb91d4cff19eee9d610e12ee93d85854e03aeeb3'),
    'structure flat': (0, 'ca2f214b2fc4859e84c8668d6f318d6b9f83e661d764d5445315c72ed72d3503'),
    'solve flat 1,1,1 min': (0, 'c04534822af96e95504e2ad0a863c672728163936a4758c5cac07bdc320ca96a'),
    'solve flat 1,1,1 max': (0, '824f06be37ca72065280c8ab0a6e09295f75c96abfda1edee1b6b9b3204d76c3'),
    'sensitivity flat 1,1,1': (0, 'a7dd2751883d0a32e36c547932ff5393073b6699db7a0bd559bb85ab43ea6c84'),
    'solve flat -1,0,1 min': (0, '237408151261dddd41ee42289283765620b3a1d6b3d2a218eeda97e6edddd413'),
    'solve flat -1,0,1 max': (0, '080845b38c1fa84df4f620776ad0529cac98c46e93be680c9d6d4e44ee4c21dd'),
    'sensitivity flat -1,0,1': (0, 'e60f67cafe3704a74d94c6d35c95c9f241960cd6b46776b1b7681adc9f669a9f'),
    'vertices empty': (0, '8efe0b36a7fa51651089b950199db43906e781e6f36571f45a766bd5d370d04a'),
    'bounded empty': (2, '727bdc309aa5258fbec92110fe33fa8945f2674adf7e743f7eeadc04dd21e68b'),
    'structure empty': (2, '727bdc309aa5258fbec92110fe33fa8945f2674adf7e743f7eeadc04dd21e68b'),
    'solve empty 1 min': (2, '99c3e13154ac6cfedbe8d21f589da9d8d67f77629dd53c12712b9ecfeabbf433'),
    'solve empty 1 max': (2, '99c3e13154ac6cfedbe8d21f589da9d8d67f77629dd53c12712b9ecfeabbf433'),
    'sensitivity empty 1': (2, '0776fd618e281eae171b755210e2ff97d04abb0414a52dafcff8e567decc90a6'),
    'solve union -1,-4 min': (0, '105e9bbafce975e15ade7dd22eb565a4429130f2eda9d030190617197c419908'),
    'solve union -1,-4 max': (0, 'd2a016879933373f4b4f0242a4377ca72fa64b72a35e814537f838552382b6c9'),
    'sensitivity union -1,-4': (0, 'f50bd61217e00ab97dc09957c600463493db263c540bb2bc43af87cee26c6934'),
    'contains quadrant triangle': (0, 'bf847b7c8f2b80ad43fee41422a3fc2cb661f9b9e5425d2ae4cde153a8cc5e1a'),
    'contains triangle quadrant': (0, '4d8b65fbbf07fcfad4c864d7f974160aeb6f2c036baa5cb72aaf7cbacd2b762f'),
    # witness (-2, 1): Y1's first vertex of largest -x, read off Y1's walk
    'contains triangle y1': (0, '741a6c6edfb1a8b869d9eb8d4f099749f684581b09ebcf30b4a0fc1802440361'),
    'contains quadrant halfline': (0, 'bf847b7c8f2b80ad43fee41422a3fc2cb661f9b9e5425d2ae4cde153a8cc5e1a'),
    'contains strip halfline': (0, 'bf847b7c8f2b80ad43fee41422a3fc2cb661f9b9e5425d2ae4cde153a8cc5e1a'),
    'contains halfline strip': (0, 'ae459c28ae621302751753c69c98bba9db42c7235a6a3e749e601ecff4ac7d18'),
    'limit remark': (0, '14b9ad32be069684e265a5cf4856a1fa24a1ab160c31550c08addc01cbbed3e4'),
    'track remark': (0, '0b4335c914ef1a05c8282252ffd80c617d4cff67a5f86529ad3c18a6902fc55c'),
    'argmax remark': (0, '39675bb8c381f1b5c13a2351563343774db287d088a0e7ee945124c5cefe9483'),
    'boundary remark': (0, 'a175a75940d8d6611c096a2d32969090e21ff006dd74b3d9ab98df2228ca64e6'),
    'limit footnote': (0, '717051ddc37aad68c9177fdcb91c807f2431480170813e30725d181228972a33'),
    'track footnote': (0, 'a525120accff34117ce23b3c7b50de7bf599ddf556b6016f48ec4458d4ed3a22'),
    'argmax footnote': (1, '51a23b5fef1f4eceedc3e66144ba31564253dbcd55fb12851d869982367a8fc4'),
    'boundary footnote': (0, '47b72d312512ebfb6e60aad513a9ff18b243bd15f9c4493813b08951555c8a6e'),
    'limit ex31': (0, 'bba810a99460c0b071c9dbf88c365d6e51871be8bfb6cbaf3feb50b1c5861aa1'),
    'track ex31': (0, 'debbfee14faa54763ac852906e4afa873695de0635afd8abbd49e8a73606b4f1'),
    'argmax ex31': (0, 'a0affadabd3ddefa70c60673ab9781dcda1bbf9a6787e9f5a7c1e750d8845a8d'),
    'boundary ex31': (0, 'a7acb4cba8f87a072070f1bf09bc0324977697eec2da67640de98db0df67c37a'),
    'limit constant_triangle': (0, '03927daefccb6ee7ae7caab19077b26f7a1b1f437400531a4a780012dcb8ac4e'),
    'track constant_triangle': (0, '39e2d4f89d814dd85166fceb0652f502b02bc1d7fb961199f2fbdb2c0a5d93c1'),
    'argmax constant_triangle': (0, '64b752ebd914c1987927c258101c9ade423901521483cfd3dfd88ae44acaa2ec'),
    'boundary constant_triangle': (0, 'd8e6b0be127a875a4ce2d23c13aee1b0cfe6d53b23700096e116349b858f1648'),
    # the one family in R^3: a cone diagnostic at a degenerate limit vertex
    'limit pyramid': (0, '576ae4a74dcbd34a2a4669bc8e3c7371fad5e81694ca66d643315f27fe740f76'),
    'track pyramid': (0, '57a371db7b25581ab99e315e05f9b9fde593ee1f63f726bc97cfaa7382e777e2'),
    'argmax pyramid': (0, '52fec48c3cc05f9cb551c5beba7f71e058ad3a1eb4b5837ba8217fe3400c4944'),
    'boundary pyramid': (0, '548580ba9e77426596c81db4a7777dc602258a0efe9de2b0f8409a4c6ea89282'),
    # samples with implicit equalities, one of them implied by two others
    'limit segment': (0, '3f62fea59177862da74ed566627567ecae1a50efb024f9db8ef8f419710010fe'),
    'track segment': (0, '2017f293ff49479395068176175958d3b53aa71c41edaa66cc3e4ad093c394b1'),
    'argmax segment': (0, '493f1dcacb7315372c02aca5e5a388facc8654b32afa02d85097b517a1bf42bc'),
    'boundary segment': (0, '748e68555e482bc25012eac45d5f95df62b2825429a8771536de2dc9923d6769'),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_fixtures(tmp_path_factory.mktemp("golden"))


def test_every_case_has_a_digest():
    assert sorted(case for case, _ in _cases()) == sorted(DIGESTS)


@pytest.mark.parametrize("case, argv", list(_cases()), ids=[case for case, _ in _cases()])
def test_report_is_byte_identical(files, case, argv):
    assert report_digest(argv, files) == DIGESTS[case]


# ---------------------------------------------------------------------------
# Library reports on fixed-seed draws: the same JSON forms the CLI prints,
# hashed without any repr, so a change of a record's repr leaves them be.


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _glp_records():
    rng = random.Random(31)
    for _ in range(1000):
        P = random_polyhedron(rng)
        c = random_cost(rng, P.n)
        for sense in ("min", "max"):
            sol = solve_glp(P, c, sense)
            yield _glp_dict(sol) | {
                "solved_on": polyhedron_to_dict(sol.solved_on),
                "lineality_basis": [format_vector(v) for v in sol.lineality_basis],
            }


def _vertex_records():
    rng = random.Random(32)
    for n in (2, 3, 4) * 40:
        P = random_degenerate_polyhedron(rng, n)
        yield [_vertex_dict(v) for v in enumerate_vertices(P)]


def _structure_records():
    rng = random.Random(33)
    for _ in range(100):
        P = random_feasible_pointed(rng)
        report = structure(P)
        yield {
            "structure": [list(report.implicit_equalities), report.dimension,
                          [format_vector(v) for v in report.lineality_basis],
                          report.facet_count, report.vertex_count],
            "minimal": polyhedron_to_dict(remove_redundant(P)),
            "reconstructs": reconstruct_check(P),
        }


LIBRARY_DIGESTS = {
    "solve_glp": "03843e36f4e0a6952947646a044c710a18a2be7216a1309d54b46f64017386b4",
    "enumerate_vertices": "3020f05c63ff190788ef998b1ada1ab62a1c63d7f53dc9d679b2b626a3116466",
    "structure": "3b280b368c0b5be73fa66cfb8d3e60da96b13cdb369a81d24a3384542052e85e",
}


LIBRARY_RECORDS = {"solve_glp": _glp_records, "enumerate_vertices": _vertex_records, "structure": _structure_records}


@pytest.mark.parametrize("name", LIBRARY_RECORDS)
def test_library_reports_are_byte_identical(name):
    assert _digest(LIBRARY_RECORDS[name]()) == LIBRARY_DIGESTS[name]
