"""Byte-level pins of the command line.

Each entry of CORPUS is one `medscm` command, run in-process in order from
one scratch directory (later commands read the files earlier ones write).
GOLDEN holds the sha256 of each command's exit code, standard output,
standard error and any file it wrote, as recorded before the family
registry drove the command line; the registry must reproduce every byte.
Two sweeps were recorded again when a one-value axis (beta=0.3) stopped
being an error, and the csv forms of reproduce's grid summary were added.
`identify t2` (both formats) was recorded again when it began to print every
row, an undefined functional as such, before its exit-4 error; its pinned
output had been the error alone. The whole T1 and T3 grids and a t2 sweep over
two structures were added, hashed before sweep points were scored in batches.
The four `estimate` commands with `--n-boot` above 0 were recorded again when a
bootstrap replicate became one multinomial draw of cell counts in place of n
drawn row indices: each `value` line is unchanged, only `ci_low` and `ci_high`
moved, a new Monte Carlo realisation of the same interval law.
"""

import hashlib

import pytest

import medscm as M
from medscm.cli import main

SWEEP_T1_21 = ["sweep", "t1", "--grid", "pi=0.05:0.95:21,beta=0.05:0.95:21", "--effect", "nie_r"]
SWEEP_T1_21_SHA = "843be4665b674ececd7a2aef1e6422c882956727de773fcdf8c8444ac8547658"


def _flags(**params):
    # the benchmark writes each value as repr(value)
    return [s for k, v in params.items() for s in (f"--{k}", repr(v))]


def _bench_argv() -> list[list[str]]:
    """The argument forms the benchmark issues, at a few points each."""
    out = []
    for pi, beta in ((0.05, 0.05), (0.5, 0.9), (0.95, 0.5)):
        out.append(["reproduce", "T1", *_flags(pi=pi, beta=beta), "--format", "csv"])
    for pi1, pi2, beta in ((0.1, 0.05, 0.1), (0.3, 0.2, 0.9), (0.7, 0.25, 0.5)):
        t2 = _flags(pi1=pi1, pi2=pi2, beta=beta)
        out.append(["reproduce", "T2", *t2, "--format", "csv"])
        out.append(["criteria", "t2", *t2, "--format", "csv"])
    for pi, b1, b2, b3, gamma in ((0.1, 0.1, 0.1, 0.1, 0.3), (0.5, 0.25, 0.3, 0.3, 0.7)):
        betas = dict(beta1=b1, beta2=b2, beta3=b3, beta4=1.0 - b1 - b2 - b3)
        out.append(["reproduce", "T3", *_flags(pi=pi, **betas, gamma=gamma), "--format", "csv"])
    for pi, beta in ((0.2, 0.05), (0.8, 0.95)):
        out.append(["reproduce", "S1", *_flags(pi=pi, beta=beta), "--format", "csv"])
    for p, m in ((0.1, 0), (0.9, 1)):
        out.append(["reproduce", "PE", *_flags(p=p, m=m), "--format", "csv"])
    out.append(["sweep", "t1", "--grid", "pi=0.05:0.95:3,beta=0.05:0.95:3", "--effect", "nie_r"])
    for model_argv, name in ((["t1", "--pi", "0.5", "--beta", "0.9"], "t1"),
                             (["random.json"], "random")):
        out.append(["sample", *model_argv, "--n", "4000", "--sample-seed", "7",
                    "--out", f"{name}.csv"])
        out.append(["estimate", f"{name}.csv", "--estimand", "psi_nie_r_L",
                    "--n-boot", "10", "--sample-seed", "7", "--format", "csv"])
    return out


README_ARGV = [
    ["validate", "model.json"],
    ["effects", "t1", "--pi", "0.5", "--beta", "0.9"],
    ["identify", "t1", "--pi", "0.5", "--beta", "0.9"],
    ["criteria", "t2", "--pi1", "0.3", "--pi2", "0.2", "--beta", "0.1"],
    ["reproduce", "T1", "--pi", "0.5", "--beta", "0.9"],
    ["reproduce", "T2"],
    SWEEP_T1_21,
    ["sample", "t1", "--pi", "0.5", "--beta", "0.9", "--n", "100000", "--sample-seed", "3",
     "--out", "data.csv"],
    ["estimate", "data.csv", "--estimand", "psi_nie_r_L", "--n-boot", "1000",
     "--sample-seed", "1"],
]

FAMILY_DEFAULT_ARGV = [
    [command, family, *fmt]
    for family in ("t1", "t2", "t3", "pe", "additive", "separable")
    for command in ("effects", "identify", "criteria")
    for fmt in ([], ["--format", "csv"])
]

OTHER_ARGV = [
    # one explicit point per theorem; T2 derives pi0 and prints it last
    ["reproduce", "T1", "--pi", "0.3", "--beta", "0.6"],
    ["reproduce", "T2", "--pi1", "0.3", "--pi2", "0.2", "--beta", "0.9"],
    ["reproduce", "T2", "--pi0", "0.4", "--pi1", "0.3", "--pi2", "0.3", "--beta", "0.7"],
    ["reproduce", "T3", "--pi", "0.3", "--beta1", "0.1", "--beta2", "0.2", "--beta3", "0.4",
     "--beta4", "0.3", "--gamma", "0.5", "--format", "csv"],
    ["reproduce", "S1", "--pi", "0.5", "--beta", "0.9"],
    ["reproduce", "PE", "--p", "0.3"],
    ["reproduce", "PE", "--p", "0.3", "--m", "1"],
    ["reproduce", "t1", "--beta", "0.6", "--pi", "0.3", "--format", "csv"],
    ["reproduce", "PE"],
    ["reproduce", "S1"],
    # a whole default grid in csv: its summary as key,value rows
    ["reproduce", "T2", "--format", "csv"],
    ["reproduce", "PE", "--format", "csv"],
    ["reproduce", "S1", "--format", "csv"],
    # the whole T1 grid, and T3's on the atom-joint model type
    ["reproduce", "T1"],
    ["reproduce", "T3"],
    # explicit family parameters
    ["effects", "t2", "--pi0", "0.5", "--pi1", "0.3", "--pi2", "0.2", "--beta", "0.6"],
    ["effects", "t3", "--beta1", "0.25", "--beta2", "0.25", "--beta3", "0.25",
     "--beta4", "0.25", "--gamma", "0.2"],
    ["effects", "additive", "--seed", "3", "--shape", "confounded"],
    ["criteria", "separable", "--seed", "2", "--tol", "1e-3", "--format", "csv"],
    ["identify", "pe", "--p", "0.2"],
    ["validate", "t2", "--pi1", "0.5"],
    ["sweep", "t2", "--grid", "pi1=0.1:0.5:3,pi2=0.1|0.2,beta=0.3", "--effect", "nie_r_L"],
    ["sweep", "additive", "--grid", "seed=0:3:4", "--effect", "nie", "--tol", "0.5"],
    ["sweep", "t3", "--grid", "pi=0.2|0.6,beta1=0.1,beta2=0.2,beta3=0.3,beta4=0.4,gamma=0.5"],
    # pi2=0 empties a level of L: one grid over two structures
    ["sweep", "t2", "--grid", "pi1=0.1|0.3,pi2=0|0.2,beta=0.3", "--effect", "nie_r"],
    # failures whose exit code and message stay
    ["reproduce", "T1", "--pi", "1.5"],
    ["reproduce", "T1", "--pi", "0.5"],
    ["reproduce", "T2", "--pi1", "0.3"],
    ["reproduce", "T3", "--pi", "0.3"],
    ["reproduce", "S1", "--beta", "0.5"],
    ["reproduce", "PE", "--m", "1"],
    ["effects", "t1", "--pi", "0"],
    ["effects", "t2", "--pi1", "0.9"],
    ["effects", "t2", "--pi0", "0.2", "--pi1", "0.3", "--pi2", "0.2"],
    ["effects", "missing.json"],
    ["effects", "broken.json"],
    ["sweep", "t1", "--grid", "pi"],
    ["sweep", "t1", "--grid", "pi=0.1:0.2"],
    ["estimate", "degenerate.csv", "--estimand", "psi_nie", "--n-boot", "0"],
    ["estimate", "t1.csv", "--estimand", "psi_cde", "--n-boot", "0"],
    ["estimate", "t1.csv", "--estimand", "psi_cde", "--m", "1", "--n-boot", "5",
     "--a-star", "1", "--a", "0"],
]

CORPUS = _bench_argv() + README_ARGV + FAMILY_DEFAULT_ARGV + OTHER_ARGV


def write_inputs(directory) -> None:
    """The input files the corpus reads."""
    (directory / "model.json").write_text(M.scm_to_json(M.thm1_counterexample(0.4, 0.6)))
    random = M.random_scm(7, "confounded", with_c=True, c_levels=2, l_levels=2,
                          m_levels=2, y_levels=2)
    (directory / "random.json").write_text(M.scm_to_json(random))
    (directory / "broken.json").write_text("{not json")
    (directory / "degenerate.csv").write_text("A,M,Y\n0,0,0\n0,0,1\n1,0,0\n1,1,1\n")


def digest(directory, argv, code, out, err) -> str:
    h = hashlib.sha256(f"{code}\n{out}\n\0\n{err}".encode())
    if "--out" in argv:
        path = directory / argv[argv.index("--out") + 1]
        h.update(path.read_bytes() if path.exists() else b"\0missing")
    return h.hexdigest()


def run_corpus(directory, capsys, argvs=CORPUS) -> dict[str, str]:
    out = {}
    for argv in argvs:
        code = main(list(argv))
        captured = capsys.readouterr()
        out[" ".join(argv)] = digest(directory, argv, code, captured.out, captured.err)
    return out


GOLDEN: dict[str, str] = {
    'reproduce T1 --pi 0.05 --beta 0.05 --format csv': 'ea668ca1cd774a56c0ce6be2d50bff35bce41830807ff3fdec5eb742816aab04',
    'reproduce T1 --pi 0.5 --beta 0.9 --format csv': 'fe7f6abce0de227108a928622036127d00bddb4452bedeeab6425ef4f99ea269',
    'reproduce T1 --pi 0.95 --beta 0.5 --format csv': '8d83b95dba4bc454e70d180f1dcac47cd88e2678db7ddd982ee73950faa17805',
    'reproduce T2 --pi1 0.1 --pi2 0.05 --beta 0.1 --format csv': 'aa54165d742ed839134363b00e1bed15a7cbb33e5d530a5c64b08ca1df835112',
    'criteria t2 --pi1 0.1 --pi2 0.05 --beta 0.1 --format csv': 'bb2a66f9f72e0931993b01af50d0d0c8dc68f5fb60b1c4512702d5edfcf39360',
    'reproduce T2 --pi1 0.3 --pi2 0.2 --beta 0.9 --format csv': 'f02d2743b85e2bdbe51ab9f73f59ff3ad18971599a0fe81e62b0d7f117da4627',
    'criteria t2 --pi1 0.3 --pi2 0.2 --beta 0.9 --format csv': '291bf6109b5c77b9f5f47b6cc5d57815084fdabbd7a7ebbeb76a431bed1ca169',
    'reproduce T2 --pi1 0.7 --pi2 0.25 --beta 0.5 --format csv': 'b58c242c5d0f11566c984643e20bbbbb48df9307dd46a08c6d5d7e55f6006d54',
    'criteria t2 --pi1 0.7 --pi2 0.25 --beta 0.5 --format csv': 'f2aee4bb7c395e4dd2edc2d315f6b039e0b905b1bbd887fcde28eb1d4ea32da0',
    'reproduce T3 --pi 0.1 --beta1 0.1 --beta2 0.1 --beta3 0.1 --beta4 0.7000000000000001 --gamma 0.3 --format csv': 'd2807e22b376c1a896f52c3495a12c899f9985a00944a4f2988a5463c2651cec',
    'reproduce T3 --pi 0.5 --beta1 0.25 --beta2 0.3 --beta3 0.3 --beta4 0.15000000000000002 --gamma 0.7 --format csv': 'fce24bcceae6c2f8f05e7873613e01109ef58e448f7a5bedc35f73bf11c0e0d9',
    'reproduce S1 --pi 0.2 --beta 0.05 --format csv': '2fd47c02edbe7277bd8116936149e191bbd83204d68cc02ebd8e2eb2d7a04abf',
    'reproduce S1 --pi 0.8 --beta 0.95 --format csv': 'e597a0d804f65724e3b599014cf27eef17b2e6fcf1fe9293195124f814e4b3f3',
    'reproduce PE --p 0.1 --m 0 --format csv': 'f89eb1b5867f47e4d3783c1670b8a8c0403187f3833f68b68f9a5b8438bd37f6',
    'reproduce PE --p 0.9 --m 1 --format csv': 'ac475d1068d5ba0a782c054afd5a1802df5104915b65047a2bd20a8e7315e7e3',
    'sweep t1 --grid pi=0.05:0.95:3,beta=0.05:0.95:3 --effect nie_r': 'b1cf5620c47f7d883c65d0441333bae06466e2149209bb6f8d488297f96fb57a',
    'sample t1 --pi 0.5 --beta 0.9 --n 4000 --sample-seed 7 --out t1.csv': '8dbd2bfd9ad7e7fe5402e3aaa516e1e5136990fae2cc0125ecca0f4f2b51d157',
    'estimate t1.csv --estimand psi_nie_r_L --n-boot 10 --sample-seed 7 --format csv': '1d40b8ac239510733164bc173a23da2dc111d17225f6b9ecc95165e353ef1276',
    'sample random.json --n 4000 --sample-seed 7 --out random.csv': 'f7e0dd162dd12bef1db962c089e55a7599927543c5543da666afd9c4167c22a8',
    'estimate random.csv --estimand psi_nie_r_L --n-boot 10 --sample-seed 7 --format csv': 'e83f4f1f545c4851f4fe13c011559ed8b24912079e31d3034f674cd45fe0073e',
    'validate model.json': 'feb2dbcffb22a9c9c74858ce23a7019ae783531ce26da422811967275cb3fe64',
    'effects t1 --pi 0.5 --beta 0.9': '5e4ca5a811e0d9561968662a32b2b7c6352c8b690f8f80fce227aff6cb556294',
    'identify t1 --pi 0.5 --beta 0.9': '62fcb1390dcd1f4c0195bb19b81ecad3e4f29a2aa99eee1fede6cd96bd2bfb33',
    'criteria t2 --pi1 0.3 --pi2 0.2 --beta 0.1': '2cf25ff84865db7dadbc8e5be6787ff72277501735d160abdb5a63affb099f8c',
    'reproduce T1 --pi 0.5 --beta 0.9': 'af3b6048233b5d0bc80e7a9dc26545aab734fd57f35604dc815bd7668bf2f831',
    'reproduce T2': 'f8c2682f3bb1a7ef78654ee5a205f303bb2133e7ded6a4984e5e7f9d11f99cbb',
    'sweep t1 --grid pi=0.05:0.95:21,beta=0.05:0.95:21 --effect nie_r': '7a4c80d92d4d23ce24d0cc438821ce531abb6b2365aa4c85f6e272c85bd4f277',
    'sample t1 --pi 0.5 --beta 0.9 --n 100000 --sample-seed 3 --out data.csv': '0f99ca760127dfa7438dc58490ff7c2f78ace722518fe929d5c7b68bf38ae47e',
    'estimate data.csv --estimand psi_nie_r_L --n-boot 1000 --sample-seed 1': '138bba1fa22c8b62d018b490441590738b92d816be5196cf5de6bda0d873a7d0',
    'effects t1': '5e4ca5a811e0d9561968662a32b2b7c6352c8b690f8f80fce227aff6cb556294',
    'effects t1 --format csv': 'a614950422c409016ecb0bc88d4f5cae386ba6966fa81618f4baf043007f686e',
    'identify t1': '62fcb1390dcd1f4c0195bb19b81ecad3e4f29a2aa99eee1fede6cd96bd2bfb33',
    'identify t1 --format csv': 'f5cd8dbaeb3660bdd6162bbb6255097a2a3b6db093e8c5d24be1ed6a6f7bd7b7',
    'criteria t1': 'd7666c97bd2fd33ec1b213e9631ebc912ab11eddbabf9714df10b7634a6f5bf8',
    'criteria t1 --format csv': '398891990d6668ec92d8e6e8c623db854a29c957d6632e243e804bc56188d602',
    'effects t2': '47bd8b99df6ae94d5703f3b9e1ee02e041b636621113beeab2fe9acabb78adb5',
    'effects t2 --format csv': '7af5f91e4099e90461c66b4997bd31a1397b730a6d29be98f9457c7a5160fee1',
    'identify t2': 'e3eebc3c30024202d2fc45dee21e63cc1bf2a676e053588998a20f672f4484a3',
    'identify t2 --format csv': '7c0567d07792a2c4fe02a35134e1d7abcc0068d3c7d1b69d9fdbe2e866b2728c',
    'criteria t2': 'c884417d510620d59076120988fcfd952afcff3a3bc1f470fc713d07f94ec73e',
    'criteria t2 --format csv': '291bf6109b5c77b9f5f47b6cc5d57815084fdabbd7a7ebbeb76a431bed1ca169',
    'effects t3': '7a54f207837cd03314a0d68b7c26682f9ec9bf83fc10c9d3f41ea6a58d9b3811',
    'effects t3 --format csv': '79f8123201e1a513c66772fe6b9ebe11025e313585a00c823e00abdbc685d708',
    'identify t3': '9b36d9e6194cd279dfe267ba4cf774d6aba48cdeae6a81c4d1892428aca7904e',
    'identify t3 --format csv': 'a11656817b83ebb76030771bbcbc1cc69d6c9e0b4e1f3ef1f276c4a1090203a9',
    'criteria t3': '6ab26d6ba2ce4abba45f63de4da080e5b7dfdcac45eccc82c004b800b3c0a317',
    'criteria t3 --format csv': 'f765be898e0c0a455da0c8fa52cd7ed5bdfedf6dec5e972b8e2551684f9ad72e',
    'effects pe': '8643e6157b478a7add33db3143354b06ef5383bfc5c3f3bd7ea68a3adb698297',
    'effects pe --format csv': '6de46942bf4a40df2cb7f0888a406e8767fa32299b365dc1af904a1ae8561902',
    'identify pe': '75797922584c2a9b419ece3249e7badda6a1cd05417ea828f0c1e55dd2cf20d8',
    'identify pe --format csv': 'd98f878d74c940c316590bb1190f074fa743504c19bff65eda6d10f9af99a557',
    'criteria pe': 'e5723cbb9b1d4418ea04dd1e46da324577a5e97952f184468bc64337e1e411e8',
    'criteria pe --format csv': 'a2e7bde8b609a0c2951cfdc9e9adee292ed6300635cc8d37cd505cd5e05a7b16',
    'effects additive': '764aa6266a254246a6a5c5cc815e7b49ccd597dffcbdf9ff27addce8c51c21e7',
    'effects additive --format csv': '71bbbc8bdf134acd37631e9b4961276748f8b39122e26d3f18579843f3a510fc',
    'identify additive': '3532ff8038bfba8059301d2f3d7adf6de9a4c38addd5d596ae5d91d6141aa405',
    'identify additive --format csv': '9ce49cea85e1b766a174077a6bf3418f296b4f5173dd99a2c4e36d6c7189c932',
    'criteria additive': '53598a6e03c35d617b8ef2a82a163c524a512271a1ab0d9fa10eff1e48f056c3',
    'criteria additive --format csv': '65a657a4c56c478da36ff987ef659078774bf8ed75514919e82e17fc1c3c461f',
    'effects separable': '6d048e4289c9e9d39f5a2e512e14e24a76a8b59255e5408a911daed88d0a3c4c',
    'effects separable --format csv': '0b2a0aa4080a5bf8c1dcd5640b403a9914d336f7bd55d60ce54b70203ffa0c2b',
    'identify separable': 'b8a75f0db6e0dd2bc2df88e8646ea55ec9aa18b00c39a92a476c46deb9b0f2fc',
    'identify separable --format csv': '6b57b3ecbe0085d1298af7d5ddf6cc580d1e2f08eb9ce1e3c74e7701b52144b6',
    'criteria separable': '3d7126ea544f091835f8bcaaa8551ab159b827d189629936e750733fe38aaf25',
    'criteria separable --format csv': 'ab3b3caca4942ebe898f8fcaafdf99aa9b92dead15f3244d9f306e2527739eeb',
    'reproduce T1 --pi 0.3 --beta 0.6': '55e04c5758267c3966e63b9ed724667b41113e7335162cd6000c9d77ff3b9633',
    'reproduce T2 --pi1 0.3 --pi2 0.2 --beta 0.9': '130d8bebdd29f5a9cdbc35de7f25f43e38eb588da52e4e2b96003590f2ad9af4',
    'reproduce T2 --pi0 0.4 --pi1 0.3 --pi2 0.3 --beta 0.7': 'b9baf1fc6f035a8d88a50a6f1bf5e00808c126726baa1f642b02456dd5a4b160',
    'reproduce T3 --pi 0.3 --beta1 0.1 --beta2 0.2 --beta3 0.4 --beta4 0.3 --gamma 0.5 --format csv': 'dcfc875c705e0739929e883a12a21ff0fb489627b451c481784e971e383e56d1',
    'reproduce S1 --pi 0.5 --beta 0.9': '81358f06d654a262ed0c7bf91626c601625ef555187203cadbdc7049e16a9eae',
    'reproduce PE --p 0.3': '5b2d7c9b0f5f1c77ea1bbea2debb02a2e4db1566c00d9f223ce8582fc6003fc6',
    'reproduce PE --p 0.3 --m 1': '82d40923516e6096db5438637a84bc5fce2b056f630cf307ccba8106525c3ba3',
    'reproduce t1 --beta 0.6 --pi 0.3 --format csv': '3969f22c055599c94c79b19a9cff3b0f38e2006e7743a3c38d59ef73bbb888c0',
    'reproduce PE': 'b4f87330b5035b55d6b77b8bc5ad35c8304cdf442b3f36d540b62791a3974426',
    'reproduce S1': 'a7a5053f8da02975fc16e5576afb2adcaf6a558f1dcb03ac190cb7dc359cd59a',
    'reproduce T2 --format csv': '36c952f5f25f82b6d23eb67e590cbd9426034d866fd6261c6ac9608762b3dbeb',
    'reproduce PE --format csv': 'bc52c76e12dc9bf23ca94c2f5b2762b4217aff9156e31d305983f6286ad73314',
    'reproduce S1 --format csv': 'b7cd563d154ebfec5126b8dee4421968ce97d391c4340b43b74e714c7fe12636',
    'reproduce T1': 'bf04af09bc46efa4553938cb5e25d5b21a49073c6d05d70488faf40e4f9818e0',
    'reproduce T3': '168a400eba90f80bd2e1d539413082416be391875e9de8b391fa0c761d1f2115',
    'effects t2 --pi0 0.5 --pi1 0.3 --pi2 0.2 --beta 0.6': '8a3ef7b86755f9e3a68f0cce9a0913adc2a2579c1f88eac92f91eb13dca2d32e',
    'effects t3 --beta1 0.25 --beta2 0.25 --beta3 0.25 --beta4 0.25 --gamma 0.2': '873e30efacace1cd828e475312bd45ec58cd9a11080f573b08cc722728b93e27',
    'effects additive --seed 3 --shape confounded': '9b74a8edafeebe1e7f4075f83045480cd5a24ab21c2d208092606b4e95bc047d',
    'criteria separable --seed 2 --tol 1e-3 --format csv': 'edce3d71cc04ca9be131e37d76d7401e94e06078f540a6b09d42a5b41ebbe47d',
    'identify pe --p 0.2': '9b542a7a0c15f4c5ca4fa428bbb1a8873f9d3380ea0bd2388e3cb35d41546bf1',
    'validate t2 --pi1 0.5': 'feb2dbcffb22a9c9c74858ce23a7019ae783531ce26da422811967275cb3fe64',
    'sweep t2 --grid pi1=0.1:0.5:3,pi2=0.1|0.2,beta=0.3 --effect nie_r_L': 'c3a6ab6d9713d141ed65625869bacd36d433c07258f68e3ddddbc876c33c5db1',
    'sweep additive --grid seed=0:3:4 --effect nie --tol 0.5': 'bd15181d7be15a23b8970da204fbf1517f2203e812ca15162e24e86405971ae9',
    'sweep t3 --grid pi=0.2|0.6,beta1=0.1,beta2=0.2,beta3=0.3,beta4=0.4,gamma=0.5': '0ca0e5bc3391d90d2369997bc29dcc33dcd5c29094c93cd24d12b771e1a71158',
    'sweep t2 --grid pi1=0.1|0.3,pi2=0|0.2,beta=0.3 --effect nie_r': '5d18b0ca03e88f23237569ba248eed6b434944040b33ac24ab03bccd3a97401c',
    'reproduce T1 --pi 1.5': 'e851c66f84dda46916e10aeeb2818edaf5c56d1750599c9abfbe63fd3ac4d5cb',
    'reproduce T1 --pi 0.5': 'e851c66f84dda46916e10aeeb2818edaf5c56d1750599c9abfbe63fd3ac4d5cb',
    'reproduce T2 --pi1 0.3': 'db4ce29195c233f53198c23434ff6e2ac58fbd63433a85d4d8e5aa7fe6db5174',
    'reproduce T3 --pi 0.3': '2090bd82dcd968527445f41e90ae08e0838dc46af8b856aa6f46b5523ce7a579',
    'reproduce S1 --beta 0.5': 'a73114b136be503df088363e975e4d68a265aa96c888725f18d82feafbdf3d9e',
    'reproduce PE --m 1': '7103291955f5d419cc81a56595f5efe243506dc1c5105d3654969c541961026f',
    'effects t1 --pi 0': '602cd6f3ade423367cc325ed763373c4dd999afbc0c88989c66d50a4ca89fb45',
    'effects t2 --pi1 0.9': '3cdb89c3aa7b2e664b284ba0024147321c7fe2a4e052d6b5637631b24b9907c5',
    'effects t2 --pi0 0.2 --pi1 0.3 --pi2 0.2': '7430a94cb1834b54010d12d08f1f66eb7197c880f9d99ffdcf478a7490cc5c70',
    'effects missing.json': 'b833ad35fa24e2db672abe849132d4ee6a49b32d7f6286bc9edbb2c7d6523845',
    'effects broken.json': '14d83a9f5e9b4476a569f531b75004075f5a5b82a8199c8288b8974f7d33a403',
    'sweep t1 --grid pi': '6da14ccb012c38545a25cb3c204ea1e2ab2f3a0dadcff214166e08750cd8ba54',
    'sweep t1 --grid pi=0.1:0.2': 'c184604b81a489800d8ca5a83f9ee0a4095e7397c0fdcddd1b2385c472c11f95',
    'estimate degenerate.csv --estimand psi_nie --n-boot 0': 'd78537302cfc04f631e8f3c04660f44d1d49c96d4d6ffd7129da184b59be9be8',
    'estimate t1.csv --estimand psi_cde --n-boot 0': '7375eba3a980eb5a7a16ee79bdbc8ef55070b39622071afc47ecf0d242d48260',
    'estimate t1.csv --estimand psi_cde --m 1 --n-boot 5 --a-star 1 --a 0': '50ab92e674b46ed955128059d85741a0c0491ef73e8a673f3c27a2504ff1dfe8',
}

# commands whose output must equal what another command printed before: t3's
# mixing probability was the flag --pi3 and is now --pi, the name its
# parameter has in reproduce, sweep and the library
RENAMED = {
    "effects t3 --pi 0.3": "effects t3 --pi3 0.3",
    "criteria t3 --pi 0.7 --gamma 0.4 --format csv": "criteria t3 --pi3 0.7 --gamma 0.4 --format csv",
}
GOLDEN_RENAMED: dict[str, str] = {
    'effects t3 --pi3 0.3': '53b254805bae513ed1e64183af103c4dd61d09aeecf39c93d4b168d86fe6d61b',
    'criteria t3 --pi3 0.7 --gamma 0.4 --format csv': 'c6ad3c06ede6015778694dc7ebffa87642d10971c6878de1481a34d29de2a002',
}


def test_sweep_t1_grid_hash(capsys):
    assert main(SWEEP_T1_21) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_T1_21_SHA


def test_golden_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    got = run_corpus(tmp_path, capsys)
    assert len(got) == len(CORPUS) == len(GOLDEN)
    assert [k for k in GOLDEN if got[k] != GOLDEN[k]] == []


@pytest.mark.parametrize("argv", sorted(RENAMED))
def test_renamed_flags_print_what_the_old_flags_printed(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = run_corpus(tmp_path, capsys, [argv.split()])
    assert got[argv] == GOLDEN_RENAMED[RENAMED[argv]]
