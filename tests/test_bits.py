"""Pinned bits of the Chernoff-family solves.

Each literal is the ``float.hex`` of a result on ``test_lambda_root``'s
chains: the t of ``chernov_t``, ``lipschitz_t`` and ``quadratic_t`` at
curvature 0.5 and 1/6 at each of its rho, and ``chernov_prob`` at half
and 99 % of the worst case.  ``ANALYZE_SHA`` pins every field of all
eight ``analyze_all`` results at each (chain, rho) by the first 16 hex
digits of a sha256 over their ``float.hex``, on those chains and on two
``CATALOGUE`` chains that repeat bounds with mixed multiplicities.  ``BALANCE_SHA`` pins
``t_wc``, ``t_rss`` and every ``balance_report`` field on each of those chains the same
way.  ``SAMPLE_SHA`` pins
the bytes of one seeded ``sample_output`` at ``MC_DRAWS`` draws, not a multiple of the
chunk length, at one and two workers, and ``MC_QUANTILE_BITS`` the value and stderr of
``mc_quantile`` on the same draws, or the name of the error it raises.  A refactor of the
solver or of the sampler must leave them all unchanged.  A change that moves them on
purpose regenerates them with ``PYTHONPATH=src python tests/test_bits.py`` and says so in
CHANGES.md.

``PYTHONPATH=src python tests/test_bits.py --dump FILE`` writes a broader record for a
before-and-after comparison of two trees with ``cmp``: the ``float.hex`` of every
``analyze_all`` field, of ``quadratic_t`` at curvature 1/6 and of ``chernov_prob`` at
``DUMP_FRACTIONS`` of the worst case, on ``dump_chains()`` at each of ``DUMP_RHOS``; with, on
each of those chains, ``t_wc``, ``t_rss``, every ``balance_report`` field, ``s_lambda`` at
each lam wbar of ``DUMP_LAMBDAS`` and ``phi``, ``psi`` and ``psi_tilde`` there at each of
``PROB_FRACTIONS`` of the worst case; then the
``float.hex`` of ``mc_quantile`` (value and stderr) at each of ``MC_DUMP_RHOS`` and of
``mc_prob`` at ``MC_DUMP_FRACTIONS`` of the worst case, on ``MC_DUMP_CHAINS`` at each of
``MC_DUMP_SEEDS`` and ``MC_DUMP_DRAWS``; last the ``float.hex`` of every field of the
``run_study`` rows at each of ``STUDY_DUMP_SEEDS`` and ``STUDY_DUMP_RHOS``, over
``STUDY_DUMP_CHAINS`` chains without Monte Carlo and ``STUDY_DUMP_MC_CHAINS`` chains with
``STUDY_DUMP_DRAWS`` draws.  Where a call raises, its line holds the error's name instead;
where a study raises, each of its chains' lines does.

``PYTHONPATH=src python tests/test_bits.py --compare OLD NEW`` reads two such dumps, of
the same layout, and prints, for each kind of line (a family t kind per method: the
``chernov``, the ``lipschitz``, the ``quadratic`` and the ``quadratic/6`` lines; prob;
balance: every ``balance`` and ``s_lambda`` line, and the ``s1`` field of every study line;
study: a study line's other fields; Monte Carlo; other), how many lines differ and the
largest relative change of a value in them.  It exits with status 1 if the dumps differ in length, or if any line
differs other than a family line, a prob line, or a study line in its Chernoff-family t
and f alone: a balance kind is counted, never allowed.

``PYTHONPATH=src python tests/test_bits.py --kernels FILE`` writes, for the same chains, rho
and fractions as ``--dump``, every kernel call of each Chernoff-family solve: a header line
per solve (``chernov_t``, ``lipschitz_t``, ``quadratic_t`` at curvature 0.5 and 1/6, and
``chernov_prob``), then one line per ``_legendre_sums``, ``_langevin_sum`` or
``_co_langevin_sum`` call with the kernel's name, the ``float.hex`` of its lambda and its
group count.  ``diff`` of two such files shows whether two trees make the same kernel calls
at the same lambda.

``PYTHONPATH=src python tests/test_bits.py --compare-kernels OLD NEW`` reads two such files
and prints, for each solve kind (``chernov_t``, ``lipschitz_t``, ``quadratic_t``,
``quadratic_t/6``, ``chernov_prob``, then ``all`` of them) and each kernel, how many calls
the new file adds and how many it removes, solve by solve as ``diff`` would match them: a call at another lambda,
group count or place counts as one removed and one added.  It exits with status 1 if the
files' solve headers differ.
"""

import argparse
import difflib
import hashlib
import math
import random

import pytest

from stacktol import (
    McConfig, StackChain, StudySpec, analyze_all, balance_report, chernov_prob, chernov_t,
    lipschitz_t, mc_prob, mc_quantile, phi, psi, psi_tilde, quadratic_t, run_study, s_lambda,
    sample_output, t_rss, t_wc,
)
from stacktol import bounds
from test_lambda_root import CATALOGUE, CHAINS, RHOS, catalogue_chains, ulp_balanced_chains

PROB_FRACTIONS = (0.5, 0.99)
MC_CHAIN = "case"
MC_DRAWS = 123_457
MC_SEED = 99
MC_WORKERS = (1, 2)
MC_RHOS = (0.5, 1e-12)


def _t_bits(name, rho):
    chain = StackChain.from_bounds(CHAINS[name])
    ts = (chernov_t(chain, rho), lipschitz_t(chain, rho), quadratic_t(chain, rho),
          quadratic_t(chain, rho, 1.0 / 6.0))
    return tuple(r.t.hex() for r in ts)


def _prob_bits(name):
    chain = StackChain.from_bounds(CHAINS[name])
    return tuple(chernov_prob(chain, f * t_wc(chain)).hex() for f in PROB_FRACTIONS)


def _analyze_sha(name, rho):
    h = hashlib.sha256()
    for r in analyze_all(StackChain.from_bounds({**CHAINS, **CATALOGUE}[name]), rho):
        fields = (r.t, r.t_clamped, r.f, r.coverage, r.rho)
        line = " ".join([r.method.value, *("None" if x is None else x.hex() for x in fields)])
        h.update((line + "\n").encode())
    return h.hexdigest()[:16]


def _balance_fields(chain):
    rep = balance_report(chain)
    return (t_wc(chain), t_rss(chain), rep.mean, rep.variance, rep.abs_dev_sum, rep.s1,
            rep.d_factor)


def _balance_sha(name):
    chain = StackChain.from_bounds({**CHAINS, **CATALOGUE}[name])
    line = " ".join(x.hex() for x in _balance_fields(chain))
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def _sample_sha(workers):
    y = sample_output(StackChain.from_bounds(CHAINS[MC_CHAIN]),
                      McConfig(draws=MC_DRAWS, seed=MC_SEED), workers=workers)
    return hashlib.sha256(y.tobytes()).hexdigest()


def _mc_quantile_bits(rho):
    try:
        est = mc_quantile(StackChain.from_bounds(CHAINS[MC_CHAIN]), rho,
                          McConfig(draws=MC_DRAWS, seed=MC_SEED))
    except ValueError as e:  # too few draws expected in the tail
        return type(e).__name__
    return est.value.hex(), est.stderr.hex()


# (chernov, lipschitz, quadratic c = 0.5, quadratic c = 1/6)
T_BITS = {
    ('single', 0.1): ('0x1.ed2a216e4274cp-1', '0x1.ed2a216e4274cp-1', '0x1.ed2a216e4274cp-1', '0x1.ed2a216e4274cp-1'),
    ('single', 0.0027): ('0x1.ff7dcf3d16ca4p-1', '0x1.ff7dcf3d16ca4p-1', '0x1.ff7dcf3d16ca4p-1', '0x1.ff7dcf3d16ca4p-1'),
    ('single', 1e-06): ('0x1.fffff3a7f08ecp-1', '0x1.fffff3a7f08ecp-1', '0x1.fffff3a7f08ecp-1', '0x1.fffff3a7f08ecp-1'),
    ('single', 1e-12): ('0x1.ffffffffff31ep-1', '0x1.ffffffffff31ep-1', '0x1.ffffffffff31ep-1', '0x1.ffffffffff31ep-1'),
    ('single', 1e-300): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('pair', 0.1): ('0x1.446e7e8c943e2p+1', '0x1.c0d2df9190048p+1', '0x1.98f3af7e36eb7p+1', '0x1.642ab32bd5751p+1'),
    ('pair', 0.0027): ('0x1.76367bb0380fep+1', '0x1.f59e7f81e1a62p+1', '0x1.1a18c3b2b8bf1p+2', '0x1.d19999bdc8975p+1'),
    ('pair', 1e-06): ('0x1.7fcfc803a9a0ap+1', '0x1.ffccdb39dc15ap+1', '0x1.7c5c331513743p+2', '0x1.2659c76d71274p+2'),
    ('pair', 1e-12): ('0x1.7ffff3a7f08e8p+1', '0x1.fffff2e83ff79p+1', '0x1.e999dca586e22p+2', '0x1.6797aa5235ffep+2'),
    ('pair', 1e-300): ('0x1.8000000000000p+1', '0x1.0000000000000p+2', '0x1.d1a5568ecee4bp+4', '0x1.20ef0aa813013p+4'),
    ('table', 0.1): ('0x1.2f3b69b05ca3cp+3', '0x1.dc6a26e15632bp+3', '0x1.7f8dd1f98252ap+3', '0x1.421a90778f796p+3'),
    ('table', 0.0027): ('0x1.8dd7bd937e0c4p+3', '0x1.20e626f6e86f2p+4', '0x1.165dedce87e4dp+4', '0x1.c830c7d47cc44p+3'),
    ('table', 1e-06): ('0x1.cf2788a1da92ap+3', '0x1.464cfa247255cp+4', '0x1.8bf8fe8eecf75p+4', '0x1.35f8046d2f5b5p+4'),
    ('table', 1e-12): ('0x1.deefe6da998b9p+3', '0x1.4f6354f3f7af5p+4', '0x1.079029052b362p+5', '0x1.88f21346ccd8cp+4'),
    ('table', 1e-300): ('0x1.e000000000000p+3', '0x1.5000000000000p+4', '0x1.058f906c3b0aap+7', '0x1.46d646ced991cp+6'),
    ('case', 0.1): ('0x1.84d72f28e519dp+0', '0x1.8c1ee51a41a6cp+1', '0x1.327d9f2d0995cp+1', '0x1.b7b99bd5cb9e3p+0'),
    ('case', 0.0027): ('0x1.00a8b73c109cep+1', '0x1.cf740672bde68p+1', '0x1.c5f752aeae037p+1', '0x1.43509d4cdfa4fp+1'),
    ('case', 1e-06): ('0x1.3d7dfc922d294p+1', '0x1.0dfcaf873cb06p+2', '0x1.4e85250b336efp+2', '0x1.d5b5ed96cbd93p+1'),
    ('case', 1e-12): ('0x1.60eedacfa5320p+1', '0x1.258a195e60d4dp+2', '0x1.cf8e63fa5ae41p+2', '0x1.3ee7e5ce1e022p+2'),
    ('case', 1e-300): ('0x1.6cccccccccccdp+1', '0x1.2d70a3d70a3d7p+2', '0x1.0837b6dbf6149p+5', '0x1.4335c70e99b94p+4'),
    ('long', 0.1): ('0x1.ff583e926fa3bp+5', '0x1.03aaf81ee4d8cp+8', '0x1.1f5e1279f8c7ap+6', '0x1.ffe356c79a1dap+5'),
    ('long', 0.0027): ('0x1.7ab4d48727481p+6', '0x1.20748aff2b9c0p+8', '0x1.aa6b0e353f47fp+6', '0x1.7b989a6b9bb99p+6'),
    ('long', 1e-06): ('0x1.16f3c377ec385p+7', '0x1.4a8cbf766a9b4p+8', '0x1.3b570bca35e9ep+7', '0x1.18661c4889f0cp+7'),
    ('long', 1e-12): ('0x1.81c61b43db295p+7', '0x1.7d1e5cbab61d2p+8', '0x1.b728596d8eb96p+7', '0x1.85b72004788d7p+7'),
    ('long', 1e-300): ('0x1.24a5ef3c2d273p+9', '0x1.88113b77ac028p+9', '0x1.df069edc47f33p+9', '0x1.80028b941ffb6p+9'),
    ('tiny', 0.1): ('0x1.f0ac3617c66e4p-664', '0x1.578d66ea73291p-663', '0x1.39084e09cbf30p-663', '0x1.10a0c872591aap-663'),
    ('tiny', 0.0027): ('0x1.1e70ff9cf372ep-663', '0x1.7ff6f1a8a4462p-663', '0x1.afdcb82adf148p-663', '0x1.6464cd9e88f01p-663'),
    ('tiny', 1e-06): ('0x1.25c9f049e1b56p-663', '0x1.87c1fb760e873p-663', '0x1.232599bae1c60p-662', '0x1.c29f2da1e5f47p-663'),
    ('tiny', 1e-12): ('0x1.25eecf8cd4f02p-663', '0x1.87e9174f562b3p-663', '0x1.76c3ee64f4cd3p-662', '0x1.13400e7fb8344p-662'),
    ('tiny', 1e-300): ('0x1.25eed8ffb39c1p-663', '0x1.87e92154ef7acp-663', '0x1.646dc9a859fd8p-660', '0x1.ba5438761518fp-661'),
    ('huge', 0.1): ('0x1.a7d8113120d85p+665', '0x1.252d1a6a5a320p+666', '0x1.0b21aa46e2df8p+666', '0x1.d14db17658c0bp+665'),
    ('huge', 0.0027): ('0x1.e8e1123fe95bfp+665', '0x1.47a9a547ef6d8p+666', '0x1.7089702b72febp+666', '0x1.3022765c2084ep+666'),
    ('huge', 1e-06): ('0x1.f56b55cd9bae5p+665', '0x1.4e50252874d40p+666', '0x1.f0e901913c612p+666', '0x1.808bb28185767p+666'),
    ('huge', 1e-12): ('0x1.f5aa441bd3610p+665', '0x1.4e7184f010840p+666', '0x1.3fcff4b205d43p+667', '0x1.d5c760e8348ffp+666'),
    ('huge', 1e-300): ('0x1.f5aa543c31387p+665', '0x1.4e718d7d7625ap+666', '0x1.302a2122e6233p+669', '0x1.7978091c3feb5p+668'),
    ('near', 0.1): ('0x1.abc460eda08e1p+0', '0x1.abc508b348505p+0', '0x1.abc460ee4319fp+0', '0x1.abc460edd3b96p+0'),
    ('near', 0.0027): ('0x1.f2294d3f1aa94p+0', '0x1.f229f504c6322p+0', '0x1.f2294d4312b7bp+0', '0x1.f2294d406cd9dp+0'),
    ('near', 1e-06): ('0x1.ffbc76a72415cp+0', '0x1.ffbd1e6cd0592p+0', '0x1.ffbc7775854b9p+0', '0x1.ffbc76ebef6aap+0'),
    ('near', 1e-12): ('0x1.00004b285341cp+1', '0x1.00009f0b29655p+1', '0x1.0000bed3e61c9p+1', '0x1.000081ff76247p+1'),
    ('near', 1e-300): ('0x1.000053e2d6239p+1', '0x1.0000a7c5ac472p+1', '0x1.0008bd9d97893p+1', '0x1.00052e4ead7ddp+1'),
    ('decimal', 0.1): ('0x1.bfc1c170af280p-3', '0x1.bfc1c170af280p-3', '0x1.bfc1c170af280p-3', '0x1.bfc1c170af280p-3'),
    ('decimal', 0.0027): ('0x1.1a383071a64ecp-2', '0x1.1a383071a64ecp-2', '0x1.1a383071a64ecp-2', '0x1.1a383071a64ecp-2'),
    ('decimal', 1e-06): ('0x1.3167f21093a53p-2', '0x1.3167f21093a53p-2', '0x1.3167f21093a53p-2', '0x1.3167f21093a53p-2'),
    ('decimal', 1e-12): ('0x1.332e9b8236ba1p-2', '0x1.332e9b8236ba1p-2', '0x1.332e9b8236ba1p-2', '0x1.332e9b8236ba1p-2'),
    ('decimal', 1e-300): ('0x1.3333333333334p-2', '0x1.3333333333334p-2', '0x1.3333333333334p-2', '0x1.3333333333334p-2'),
}

# chernov_prob at PROB_FRACTIONS of the worst case
PROB_BITS = {
    'single': ('0x1.0000000000000p+0', '0x1.bd5d00e2e8468p-6'),
    'pair': ('0x1.e3ac824fbf568p-1', '0x1.b3d302dd283e7p-12'),
    'table': ('0x1.6ee0ffafd9a26p-2', '0x1.0228b5273e147p-29'),
    'case': ('0x1.417941e4a72fap-3', '0x1.1608c11e35a97p-57'),
    'long': ('0x1.f526294953293p-105', '0x0.0p+0'),
    'tiny': ('0x1.e3ac824fbf568p-1', '0x1.b3d302dd28343p-12'),
    'huge': ('0x1.e3ac824fbf568p-1', '0x1.b3d302dd2835fp-12'),
    'near': ('0x1.c43b420a956c5p-1', '0x1.83663b6f69cc8p-12'),
    'decimal': ('0x1.2c8846f402359p-1', '0x1.50fab965acdfep-18'),
}

# every analyze_all field, hashed
ANALYZE_SHA = {
    ('single', 0.1): '0d2be63b6f3cfd80',
    ('single', 0.0027): 'cf978115d3d3b327',
    ('single', 1e-06): 'fc0b2706a92abd9b',
    ('single', 1e-12): '258f0d39f83a21d0',
    ('single', 1e-300): '989a8e8af1c8b6f6',
    ('pair', 0.1): '1c104ebdd3abb3e5',
    ('pair', 0.0027): 'fac5eb751fdb87de',
    ('pair', 1e-06): 'c90a101c0e67a438',
    ('pair', 1e-12): '796402158ca5f9cc',
    ('pair', 1e-300): '0fb2cdc6683ddf5d',
    ('table', 0.1): '90df4d69798edda0',
    ('table', 0.0027): '86e137f274ffed57',
    ('table', 1e-06): '9c37a220a6703a77',
    ('table', 1e-12): '9ec3f34ca8879e78',
    ('table', 1e-300): 'd4dcc26560802058',
    ('case', 0.1): 'ee26cd922753b523',
    ('case', 0.0027): '2db2ba0922c04f9c',
    ('case', 1e-06): '4d06c29af754d341',
    ('case', 1e-12): '3fe9728a3e02bfbe',
    ('case', 1e-300): '5169bc90989204f8',
    ('long', 0.1): 'efeb5e87fbd5ba02',
    ('long', 0.0027): '38e9387f315fb904',
    ('long', 1e-06): '9032641ef86fe53f',
    ('long', 1e-12): '38765db1438ec2c5',
    ('long', 1e-300): '27a269cab1dacb90',
    ('tiny', 0.1): '365a55ffa5997c45',
    ('tiny', 0.0027): '38bef4dface897c4',
    ('tiny', 1e-06): '9aa55b3ac2abd336',
    ('tiny', 1e-12): '944cb6f05b843e60',
    ('tiny', 1e-300): 'bc670817fa16e76b',
    ('huge', 0.1): '057d64dabf39bd04',
    ('huge', 0.0027): 'fd9a9aa20284265c',
    ('huge', 1e-06): 'c40af8814c8a9a48',
    ('huge', 1e-12): '061ee93006775fb3',
    ('huge', 1e-300): '130d1465d20c709b',
    ('near', 0.1): '1da158180f830c0a',
    ('near', 0.0027): 'a121b72ad9bf0d6e',
    ('near', 1e-06): '0dcdbcb48bfe44e4',
    ('near', 1e-12): 'e273138aa9fa4fd4',
    ('near', 1e-300): '55b4c4923b247a1f',
    ('decimal', 0.1): 'faf01b8b512f5691',
    ('decimal', 0.0027): 'fbd9093fee2ae7bd',
    ('decimal', 1e-06): 'ae045ae34f7208e7',
    ('decimal', 1e-12): '1d6981875f851e8d',
    ('decimal', 1e-300): '718339b13b2a03f2',
    ('catalogue', 0.1): '351da52ff17eadad',
    ('catalogue', 0.0027): 'c4903ed6dc28c17f',
    ('catalogue', 1e-06): '9f69b6b2f6849b40',
    ('catalogue', 1e-12): '2049212a782a0409',
    ('catalogue', 1e-300): 'bc7da9815edab993',
    ('catalogue_long', 0.1): 'fcfe6746bfbf16b7',
    ('catalogue_long', 0.0027): '4525e380d82419c1',
    ('catalogue_long', 1e-06): '8e50db961bb6fd81',
    ('catalogue_long', 1e-12): '352eab515b5f4f31',
    ('catalogue_long', 1e-300): 'a4f8bca0bfb34715',
}

# t_wc, t_rss and every balance_report field, hashed
BALANCE_SHA = {
    'single': 'e6ff9f4822c19c93',
    'pair': 'f643084bbe16292a',
    'table': 'fbb3438554854b6e',
    'case': 'ddada58dbe8ae21e',
    'long': 'b672f6de76d99bb7',
    'tiny': 'd05482481014fa0e',
    'huge': '2504c1ce1d913db3',
    'near': 'bec1322a0b166c47',
    'decimal': '88e1c01513142a5c',
    'catalogue': '0c592e61b8b2a1cb',
    'catalogue_long': '081eb7f3c23dcdf5',
}

# sample_output(CHAINS[MC_CHAIN], McConfig(draws=MC_DRAWS, seed=MC_SEED)), by workers
SAMPLE_SHA = {
    1: '2b6a336c12c32eb26eabf0ca0394667532cdff1ee016170b68cb89d9b9f428b6',
    2: '2b6a336c12c32eb26eabf0ca0394667532cdff1ee016170b68cb89d9b9f428b6',
}

# (value, stderr) of mc_quantile on the same draws, by rho; at 1e-12 it
# refuses, as 1.2e-7 draws are expected in the tail
MC_QUANTILE_BITS = {
    0.5: ('0x1.0bcb6e266b7d5p-1', '0x1.bce0363d72a2cp-10'),
    1e-12: 'ValueError',
}


@pytest.mark.parametrize("name,rho", list(T_BITS))
def test_t_bits(name, rho):
    assert _t_bits(name, rho) == T_BITS[name, rho]


@pytest.mark.parametrize("name", list(PROB_BITS))
def test_prob_bits(name):
    assert _prob_bits(name) == PROB_BITS[name]


@pytest.mark.parametrize("name,rho", list(ANALYZE_SHA))
def test_analyze_sha(name, rho):
    assert _analyze_sha(name, rho) == ANALYZE_SHA[name, rho]


@pytest.mark.parametrize("name", list(BALANCE_SHA))
def test_balance_sha(name):
    assert _balance_sha(name) == BALANCE_SHA[name]


@pytest.mark.parametrize("workers", list(SAMPLE_SHA))
def test_sample_sha(workers):
    assert _sample_sha(workers) == SAMPLE_SHA[workers]


@pytest.mark.parametrize("rho", list(MC_QUANTILE_BITS))
def test_mc_quantile_bits(rho):
    assert _mc_quantile_bits(rho) == MC_QUANTILE_BITS[rho]


DUMP_RHOS = (0.9, *RHOS, 5e-324)
DUMP_FRACTIONS = (0.1, 0.5, 0.9, 0.99, 1.0 - 1e-12)
DUMP_LAMBDAS = (0.01, 1.0, 100.0)
MC_DUMP_CHAINS = ("single", "pair", "table", "case", "tiny", "huge", "near", "decimal")
MC_DUMP_RHOS = (0.9, 0.5, 0.3, 0.1, 0.05, 0.0027, 1e-4, 1e-6, 1e-9, 1e-12)
MC_DUMP_FRACTIONS = (0.25, 0.5, 0.9)
MC_DUMP_SEEDS = (1, 99, 2**64 - 1)
MC_DUMP_DRAWS = (1000, 12_345, 50_000, 200_000)
STUDY_DUMP_SEEDS = (1, 2**64 - 1)
STUDY_DUMP_RHOS = (0.3, 0.0027, 1e-6)
STUDY_DUMP_CHAINS = 200
STUDY_DUMP_MC_CHAINS = 9
STUDY_DUMP_DRAWS = 60_001


def dump_chains():
    """(label, bounds) of the dump's fixed chains."""
    rng = random.Random(11)
    seeded = [tuple(rng.uniform(0.1, 10.0) * 10.0 ** e for _ in range(rng.randint(1, 30)))
              for e in range(-300, 301, 25) for _ in range(8)]
    return [*CHAINS.items(), *CATALOGUE.items(),
            *((f"catalogue{i}", w) for i, w in enumerate(catalogue_chains(60))),
            *((f"seeded{i}", w) for i, w in enumerate(seeded)),
            *((f"ulp{i}", w) for i, w in enumerate(ulp_balanced_chains(1000))),
            ("subnormal", (5e-324,)), ("max", (1e308,)), ("max2", (1e308, 1e308))]


def _hex(x):
    """float.hex of a float, "None" of None; of a tuple, of each of its items."""
    if isinstance(x, tuple):
        return " ".join(map(_hex, x))
    return "None" if x is None else x.hex()


# an error is a result to compare too
_ERRORS = (ArithmeticError, ValueError)


def _hex_or_error(f):
    try:
        return _hex(f())
    except _ERRORS as e:
        return type(e).__name__


def dump(path):
    with open(path, "w") as out:
        for label, w in dump_chains():
            chain = StackChain.from_bounds(w)
            for rho in DUMP_RHOS:
                for r in analyze_all(chain, rho):
                    fields = (r.t, r.t_clamped, r.f, r.coverage)
                    out.write(f"{label} {rho!r} {r.method.value} {' '.join(map(_hex, fields))}\n")
                out.write(f"{label} {rho!r} quadratic/6 "
                          f"{_hex_or_error(lambda: quadratic_t(chain, rho, 1.0 / 6.0).t)}\n")
            for f in DUMP_FRACTIONS:
                out.write(f"{label} prob {f!r} "
                          f"{_hex_or_error(lambda: chernov_prob(chain, f * t_wc(chain)))}\n")
            out.write(f"{label} balance {' '.join(map(_hex, _balance_fields(chain)))}\n")
            wbar, wc = balance_report(chain).mean, t_wc(chain)
            for x in DUMP_LAMBDAS:
                lam = x / wbar
                out.write(f"{label} s_lambda {x!r} {_hex_or_error(lambda: s_lambda(chain, lam))}\n")
                for f in PROB_FRACTIONS:
                    for fn in (phi, psi, psi_tilde):
                        out.write(f"{label} {fn.__name__} {x!r} {f!r} "
                                  f"{_hex_or_error(lambda: fn(chain, lam, f * wc))}\n")
        for name in MC_DUMP_CHAINS:
            chain = StackChain.from_bounds(CHAINS[name])
            for seed in MC_DUMP_SEEDS:
                for draws in MC_DUMP_DRAWS:
                    cfg = McConfig(draws=draws, seed=seed)
                    for rho in MC_DUMP_RHOS:
                        out.write(f"{name} mc {seed} {draws} {rho!r} "
                                  f"{_hex_or_error(lambda: mc_quantile(chain, rho, cfg))}\n")
                    for f in MC_DUMP_FRACTIONS:
                        est = _hex_or_error(lambda: mc_prob(chain, f * t_wc(chain), cfg))
                        out.write(f"{name} mc {seed} {draws} prob {f!r} {est}\n")
        for seed in STUDY_DUMP_SEEDS:
            for rho in STUDY_DUMP_RHOS:
                for n_chains, mc_cfg in ((STUDY_DUMP_CHAINS, None), (STUDY_DUMP_MC_CHAINS,
                                         McConfig(draws=STUDY_DUMP_DRAWS, seed=seed))):
                    spec = StudySpec(n_chains=n_chains, rho=rho, seed=seed, mc_cfg=mc_cfg)
                    try:
                        rows = [_hex((row.s1, row.d_factor, *row.ts.values(), *row.fs.values(),
                                      row.mc_t)) for row in run_study(spec)]
                    except _ERRORS as e:  # the study fails as a whole: one line per chain
                        rows = [type(e).__name__] * n_chains
                    for chain_id, fields in enumerate(rows):
                        out.write(f"study {seed} {rho!r} {mc_cfg is not None} {chain_id} "
                                  f"{fields}\n")


KERNELS = ("_legendre_sums", "_langevin_sum", "_co_langevin_sum")


def kernels(path):
    """Write the kernel calls of dump()'s Chernoff-family solves; see the module docstring."""
    solves = (
        ("chernov_t", lambda chain, rho: chernov_t(chain, rho).t),
        ("lipschitz_t", lambda chain, rho: lipschitz_t(chain, rho).t),
        ("quadratic_t", lambda chain, rho: quadratic_t(chain, rho).t),
        ("quadratic_t/6", lambda chain, rho: quadratic_t(chain, rho, 1.0 / 6.0).t),
    )
    originals = {name: getattr(bounds, name) for name in KERNELS}
    with open(path, "w") as out:
        def traced(name):
            def call(lam, groups):
                out.write(f"{name} {lam.hex()} {len(groups)}\n")
                return originals[name](lam, groups)
            return call
        try:
            for name in KERNELS:
                setattr(bounds, name, traced(name))
            for label, w in dump_chains():
                chain = StackChain.from_bounds(w)
                for rho in DUMP_RHOS:
                    for name, solve in solves:
                        out.write(f"{label} {rho!r} {name}\n")
                        _hex_or_error(lambda: solve(chain, rho))
                for f in DUMP_FRACTIONS:
                    out.write(f"{label} chernov_prob {f!r}\n")
                    _hex_or_error(lambda: chernov_prob(chain, f * t_wc(chain)))
        finally:
            for name, kernel in originals.items():
                setattr(bounds, name, kernel)


SOLVE_KINDS = ("chernov_t", "lipschitz_t", "quadratic_t", "quadratic_t/6", "chernov_prob")


def _solves(path):
    """[(header, [kernel call lines])] of a kernels() file, in order."""
    solves = []
    with open(path) as f:
        for line in f.read().splitlines():
            if line.split()[0] in KERNELS:
                solves[-1][1].append(line)
            else:
                solves.append((line, []))
    return solves


def _solve_kind(header):
    """The solve kind of a kernels() header: "label rho solve" or "label chernov_prob f"."""
    tokens = header.split()
    return tokens[1] if tokens[1] == "chernov_prob" else tokens[2]


def compare_kernels(old_path, new_path):
    """(report lines, offending lines) of two kernels() files; see the module docstring."""
    old, new = _solves(old_path), _solves(new_path)
    offending = [f"- {a}\n+ {b}" for (a, _), (b, _) in zip(old, new) if a != b]
    if len(old) != len(new):
        offending.append(f"{len(old)} solves against {len(new)}")
    added = {(k, kernel): 0 for k in SOLVE_KINDS for kernel in KERNELS}
    removed = dict(added)
    solves_differ = 0
    for (header, a), (_, b) in zip(old, new):
        if a == b:
            continue
        solves_differ += 1
        kind = _solve_kind(header)
        ops = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
        for op, i1, i2, j1, j2 in ops:
            if op in ("delete", "replace"):
                for line in a[i1:i2]:
                    removed[kind, line.split()[0]] += 1
            if op in ("insert", "replace"):
                for line in b[j1:j2]:
                    added[kind, line.split()[0]] += 1
    for kernel in KERNELS:
        added["all", kernel] = sum(added[k, kernel] for k in SOLVE_KINDS)
        removed["all", kernel] = sum(removed[k, kernel] for k in SOLVE_KINDS)
    report = [f"{len(old)} solves, {solves_differ} differ"]
    for key in added:
        report.append(f"  {key[0]:<13} {key[1]:<17} {added[key]:>7} added "
                      f"{removed[key]:>7} removed")
    return report, offending


def test_compare_kernels_counts_calls_per_kind_and_kernel(tmp_path):
    old = ["single 0.1 chernov_t", "_legendre_sums 0x1.0p+0 1", "_langevin_sum 0x1.0p+0 1",
           "single 0.1 quadratic_t/6", "_legendre_sums 0x1.0p+1 1",
           "single chernov_prob 0.5", "_co_langevin_sum 0x1.0p+2 1", "_legendre_sums 0x1.0p+2 1"]
    (tmp_path / "old").write_text("\n".join(old) + "\n")

    def report(new):
        (tmp_path / "new").write_text("\n".join(new) + "\n")
        lines, offending = compare_kernels(tmp_path / "old", tmp_path / "new")
        counts = {tuple(line.split()[:2]): (int(line.split()[2]), int(line.split()[4]))
                  for line in lines[1:]}
        return lines[0], {k: v for k, v in counts.items() if v != (0, 0)}, len(offending)
    assert report(old) == ("3 solves, 0 differ", {}, 0)
    # a slope formed where the last call was: one call added, none removed
    added = old[:3] + ["_langevin_sum 0x1.0p+900 1"] + old[3:]
    assert report(added) == ("3 solves, 1 differ", {("chernov_t", "_langevin_sum"): (1, 0),
                                                    ("all", "_langevin_sum"): (1, 0)}, 0)
    # a call at another lambda is one removed and one added; each kind apart
    moved = old[:4] + ["_legendre_sums 0x1.8p+1 1"] + old[5:7]
    assert report(moved) == ("3 solves, 2 differ", {
        ("quadratic_t/6", "_legendre_sums"): (1, 1),
        ("chernov_prob", "_legendre_sums"): (0, 1),
        ("all", "_legendre_sums"): (1, 2)}, 0)
    # two calls swapped: one of them moved, not only added
    swapped = [old[0], old[2], old[1], *old[3:]]
    assert list(report(swapped)[1].values()) == [(1, 1), (1, 1)]  # its kind's and the total
    # the solve headers must agree: another rho, or a solve missing
    assert report([old[0].replace("0.1", "0.2"), *old[1:]])[2] == 1
    assert report(old[:5])[2] == 1


FAMILY = ("chernov", "lipschitz", "quadratic", "quadratic/6")
FAMILY_KINDS = tuple(f"{m} t" for m in FAMILY)
COMPARE_KINDS = (*FAMILY_KINDS, "prob", "balance", "study", "Monte Carlo", "other")
STUDY_S1 = 5  # the token of a study line's s1, past its 5 keys


def _row_kind(tokens):
    """The kind of a dump line, from its layout in dump()."""
    if tokens[0] == "study":
        return "study"
    if tokens[1] == "mc":
        return "Monte Carlo"
    if tokens[1] in ("prob", "balance", "s_lambda"):
        return "prob" if tokens[1] == "prob" else "balance"
    return f"{tokens[2]} t" if tokens[2] in FAMILY else "other"


def _study_family_tokens():
    """The token positions of a study line's Chernoff-family t and f."""
    (row,) = run_study(StudySpec(n_chains=1, rho=0.5, seed=0))
    methods = [m.value for m in (*row.ts, *row.fs)]
    return {STUDY_S1 + 2 + i for i, m in enumerate(methods) if m in FAMILY}  # past s1 and d


def _relative_change(old, new):
    """|new - old| / |old| of two float.hex tokens; inf where either is not a finite float."""
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except ValueError:  # "None" or an error's name
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def compare(old_path, new_path):
    """(report lines, offending lines) of two dumps; see the module docstring."""
    with open(old_path) as f:
        old = f.read().splitlines()
    with open(new_path) as f:
        new = f.read().splitlines()
    offending = [] if len(old) == len(new) else [f"{len(old)} lines against {len(new)}"]
    study_family = _study_family_tokens()
    total = {k: 0 for k in COMPARE_KINDS}
    differ = {k: 0 for k in COMPARE_KINDS}
    largest = {k: 0.0 for k in COMPARE_KINDS}
    lines_differ = 0
    for a, b in zip(old, new):
        ta, tb = a.split(), b.split()
        kind = _row_kind(ta)
        # a study line's s1 is counted with the balance lines, its other fields as study
        fields = {kind: set(range(len(ta)))}
        if kind == "study":
            fields = {"balance": {STUDY_S1}, "study": fields[kind] - {STUDY_S1}}
        for k in fields:
            total[k] += 1
        if a == b:
            continue
        lines_differ += 1
        moved = {i for i, (x, y) in enumerate(zip(ta, tb)) if x != y}
        for k, tokens in fields.items():
            if len(ta) != len(tb):
                differ[k], largest[k] = differ[k] + 1, math.inf
            elif moved & tokens:
                differ[k] += 1
                largest[k] = max([largest[k],
                                  *(_relative_change(ta[i], tb[i]) for i in moved & tokens)])
        allowed = kind in (*FAMILY_KINDS, "prob") or (kind == "study" and moved <= study_family)
        if not allowed or len(ta) != len(tb):
            offending.append(f"- {a}\n+ {b}")
    report = [f"{len(old)} lines, {lines_differ} differ"]
    for k in COMPARE_KINDS:
        report.append(f"  {k:<13} {differ[k]:>7} of {total[k]:>7} differ, "
                      f"largest relative change {largest[k]:.2g}")
    return report, offending


def test_compare_allows_only_family_and_prob_lines_to_move(tmp_path):
    one, two = (1.0).hex(), (1.0 + 2.0 ** -52).hex()

    def study(**moved):
        # 5 keys, s1, d, the t and then the f of hoeffding, chernov, lipschitz, quadratic; mc_t
        tokens = ["study", "1", "0.3", "False", "0", *[one] * 10, "None"]
        for i in moved.values():
            tokens[i] = two
        return " ".join(tokens)
    # a family t line per method, as dump() writes them: the four analyze_all fields, or one t
    old = [f"single 0.1 {m} " + " ".join([one] * (1 if m == "quadratic/6" else 4)) for m in FAMILY]
    old += ["single prob 0.5 " + one, "single 0.1 wc " + " ".join([one] * 4), study(),
            "single balance " + " ".join([one] * 7), "single s_lambda 1.0 " + one]
    chernov, lipschitz, quadratic, quadratic6 = range(len(FAMILY))
    prob, wc, study_line, balance, s_lam = range(len(FAMILY), len(old))

    def moved(*at, **study_moved):
        """old with every value of the lines ``at`` and the study fields ``study_moved`` moved."""
        new = [line.replace(one, two) if i in at else line for i, line in enumerate(old)]
        new[study_line] = study(**study_moved)
        return new
    (tmp_path / "old").write_text("\n".join(old) + "\n")
    reports = []
    for new, offending in (
        (moved(chernov, prob), 0),
        (moved(chernov, prob, chernov_t=8, lipschitz_f=13), 0),
        (moved(chernov, prob, wc), 1),
        (moved(chernov, prob, s1=5), 1),
        (moved(chernov, prob, hoeffding_t=7), 1),
        (moved(balance, s_lam), 2),
        (moved(balance, s_lam, s1=5, chernov_t=8), 3),
        (moved(lipschitz, quadratic6), 0),
        (moved(lipschitz, quadratic, quadratic6, chernov), 0),
        (old[:3], 1),
    ):
        (tmp_path / "new").write_text("\n".join(new) + "\n")
        report, found = compare(tmp_path / "old", tmp_path / "new")
        assert len(found) == offending, (new, found)
        reports.append(report)
    assert reports[0][:7] == [
        "9 lines, 2 differ",
        "  chernov t           1 of       1 differ, largest relative change 2.2e-16",
        "  lipschitz t         0 of       1 differ, largest relative change 0",
        "  quadratic t         0 of       1 differ, largest relative change 0",
        "  quadratic/6 t       0 of       1 differ, largest relative change 0",
        "  prob                1 of       1 differ, largest relative change 2.2e-16",
        "  balance             0 of       3 differ, largest relative change 0",
    ]
    # a study line's s1 is counted as balance, its t as study, the line once
    assert reports[6][5:9] == [
        "  prob                0 of       1 differ, largest relative change 0",
        "  balance             3 of       3 differ, largest relative change 2.2e-16",
        "  study               1 of       1 differ, largest relative change 2.2e-16",
        "  Monte Carlo         0 of       0 differ, largest relative change 0",
    ]
    assert reports[6][0] == "9 lines, 3 differ"
    # each family method is a kind of its own
    assert reports[7][:5] == [
        "9 lines, 2 differ",
        "  chernov t           0 of       1 differ, largest relative change 0",
        "  lipschitz t         1 of       1 differ, largest relative change 2.2e-16",
        "  quadratic t         0 of       1 differ, largest relative change 0",
        "  quadratic/6 t       1 of       1 differ, largest relative change 2.2e-16",
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the pins, or dump or compare a broader "
                                                 "record.")
    parser.add_argument("--dump", metavar="FILE", help="write the dump to FILE instead")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead")
    parser.add_argument("--kernels", metavar="FILE",
                        help="write the kernel calls of each solve to FILE instead")
    parser.add_argument("--compare-kernels", nargs=2, metavar=("OLD", "NEW"),
                        help="compare the kernel calls of two such files instead")
    args = parser.parse_args()
    if args.dump is not None:
        dump(args.dump)
        raise SystemExit
    if args.kernels is not None:
        kernels(args.kernels)
        raise SystemExit
    if args.compare_kernels is not None:
        report, offending = compare_kernels(*args.compare_kernels)
        print("\n".join(report))
        if offending:
            print(f"{len(offending)} solve headers differ; the first:", *offending[:5], sep="\n")
        raise SystemExit(1 if offending else 0)
    if args.compare is not None:
        report, offending = compare(*args.compare)
        print("\n".join(report))
        if offending:
            print(f"{len(offending)} lines differ that may not; the first:", *offending[:5],
                  sep="\n")
        raise SystemExit(1 if offending else 0)
    print("T_BITS = {")
    for name in CHAINS:
        for rho in RHOS:
            print(f"    ({name!r}, {rho!r}): {_t_bits(name, rho)!r},")
    print("}\n\nPROB_BITS = {")
    for name in CHAINS:
        print(f"    {name!r}: {_prob_bits(name)!r},")
    print("}\n\nANALYZE_SHA = {")
    for name in [*CHAINS, *CATALOGUE]:
        for rho in RHOS:
            print(f"    ({name!r}, {rho!r}): {_analyze_sha(name, rho)!r},")
    print("}\n\nBALANCE_SHA = {")
    for name in [*CHAINS, *CATALOGUE]:
        print(f"    {name!r}: {_balance_sha(name)!r},")
    print("}\n\nSAMPLE_SHA = {")
    for workers in MC_WORKERS:
        print(f"    {workers}: {_sample_sha(workers)!r},")
    print("}\n\nMC_QUANTILE_BITS = {")
    for rho in MC_RHOS:
        print(f"    {rho!r}: {_mc_quantile_bits(rho)!r},")
    print("}")
