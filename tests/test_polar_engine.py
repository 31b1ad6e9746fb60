"""The polar engine's shared tables, its shared row, and its pinned bits.

The pins are float.hex values taken before the engine built its node
offsets once per (mollifier, level, sphere rule) and sent probes whose
breakpoints all miss the kernel ball to the shared breakpoint-free row:
neither step may move a bit.  2D/3D energies left the engine for the
sliced route (tests/test_sliced.py holds them to their oracle); the
Sobolev residuals, the engine's last integrated functional, keep their
pins.  The candidate term of a row with an offset table is
U . (r sigma), no longer r (U . sigma): the 2D remainder pins and the
2^-11 residual pin were taken again with it (1D values are unmoved, as
sigma = +-1 is exact, and the default 3D row has no table).  The
power-law pins are those of its rows in r whose first panel is Gauss in
the kernel's weight (times r^p for a remainder).
"""

import numpy as np
import pytest

from bbmlab import fields, functionals as F, mollifiers as mf, quadrature as Q
from bbmlab.errors import EvaluationError
from bbmlab.functionals import DensityRequest, QuadratureScheme

KERNELS = {"indicator": lambda d: mf.indicator(0.25, d),
           "gaussian": lambda d: mf.gaussian(64.0, d),
           "powerlaw": lambda d: mf.power_law(0.3, d)}
EXPONENTS = (1.0, 1.5, 2.0)


def mixed_field(height=1.0):
    """x^2 on |x| <= 6 plus a jump of the given height at 0 (the CLI's mixed)."""
    smooth = fields.AnalyticField(1, lambda q: q[:, 0] ** 2, lambda q: 2 * q,
                                  support_radius=6.0, label="x^2")
    return fields.BVField1D(smooth, [(0.0, height)])


SMALL_3D = QuadratureScheme(sphere_order=4, radial_level=1)
BATCH_3D = QuadratureScheme(sphere_order=8, radial_level=2)

# name -> (functional, field, probe, scheme, Omega).  The 1D BV probes lie
# 0.1 from the jump (inside every kernel ball), 0.45 (outside the
# indicator's only) and 1.3 (outside all three); the kernel radii are
# 0.25, 0.71-0.75 and 1.
DENSITY_CASES = {
    "d1-bump": ("density", lambda: fields.gaussian_bump(1), [0.4], None, None),
    "d1-linear": ("density", lambda: fields.linear_field([1.7]), [0.2], None, None),
    "d1-mixed-in": ("density", mixed_field, [0.1], None, None),
    "d1-mixed-mid": ("density", mixed_field, [0.45], None, None),
    "d1-mixed-out": ("density", mixed_field, [1.3], None, None),
    "d1-step-mid": ("density", fields.step_field, [0.5], None, None),
    "d1-interval": ("density", lambda: fields.interval_set(-0.3, 0.6), [0.15], None, None),
    "d1-batch": ("density", mixed_field, [[0.1], [0.45], [1.3], [-2.0]], None, None),
    "d1-batch-out": ("density", mixed_field, [[1.3], [-2.0], [2.5]], None, None),
    "d1-remainder-bump": ("remainder", lambda: fields.gaussian_bump(1), [0.4], None, None),
    "d1-remainder-mixed-in": ("remainder", mixed_field, [0.1], None, None),
    "d1-remainder-mixed-out": ("remainder", mixed_field, [1.3], None, None),
    "d1-omega": ("omega", lambda: fields.gaussian_bump(1), [0.4], None,
                 lambda: fields.interval_set(0.2, 0.9)),
    "d1-omega-out": ("omega", mixed_field, [1.3], None,
                     lambda: fields.interval_set(-5.0, 5.0)),
    "d2-bump": ("density", lambda: fields.gaussian_bump(2), [0.3, -0.5], None, None),
    "d2-linear": ("density", lambda: fields.linear_field([0.8, -1.3]), [0.1, 0.2],
                  None, None),
    "d2-bump-scheme": ("density", lambda: fields.gaussian_bump(2), [0.3, -0.5],
                       QuadratureScheme(sphere_order=16, radial_level=2), None),
    "d2-batch": ("density", lambda: fields.gaussian_bump(2),
                 [[0.3, -0.5], [0.0, 0.7], [-1.1, 0.2]], None, None),
    "d2-remainder": ("remainder", lambda: fields.gaussian_bump(2), [0.3, -0.5],
                     None, None),
    "d2-disk-in": ("density", lambda: fields.ball_set([0.0, 0.0], 1.0), [0.9, 0.0],
                   None, None),
    "d2-disk-out": ("density", lambda: fields.ball_set([0.0, 0.0], 1.0), [0.2, 0.1],
                    None, None),
    "d2-box": ("density", lambda: fields.box_set([0.0, 0.0], [1.0, 0.5]), [0.5, 0.25],
               None, None),
    "d2-half-space": ("density", lambda: fields.half_space_set([1.0, 1.0], 0.2),
                      [0.1, 0.0], None, None),
    "d2-omega": ("omega", lambda: fields.gaussian_bump(2), [0.3, -0.5], None,
                 lambda: fields.ball_set([0.0, 0.0], 1.0)),
    "d2-omega-box": ("omega", lambda: fields.gaussian_bump(2), [0.3, -0.5], None,
                     lambda: fields.box_set([-2.0, -2.0], [2.0, 2.0])),
    "d3-bump": ("density", lambda: fields.gaussian_bump(3), [0.3, -0.4, 0.5], None, None),
    "d3-remainder": ("remainder", lambda: fields.gaussian_bump(3), [0.3, -0.4, 0.5],
                     None, None),
    "d3-linear-small": ("density", lambda: fields.linear_field([0.5, -1.0, 2.0]),
                        [0.1, 0.2, -0.1], SMALL_3D, None),
    "d3-batch-small": ("density", lambda: fields.gaussian_bump(3),
                       [[0.3, -0.4, 0.5], [0.0, 0.0, 0.9], [-0.6, 0.1, 0.0]],
                       BATCH_3D, None),
    "d3-ball": ("density", lambda: fields.ball_set([0.0, 0.0, 0.0], 1.0),
                [0.5, 0.0, 0.1], SMALL_3D, None),
}


def case_values(name):
    """The case's values at every kernel and exponent, as float.hex
    strings, kernels in sorted order and exponents ascending."""
    fn, field, probe, scheme, omega = DENSITY_CASES[name]
    u = field()
    out = []
    for kind in sorted(KERNELS):
        m = KERNELS[kind](u.dimension)
        for p in EXPONENTS:
            if fn == "omega":
                v = F.domain_density(u, m, p, probe, omega(), scheme)
            elif fn == "remainder":
                v = F.remainder_density(DensityRequest(u, m, p, probe, scheme))
            else:
                v = F.pointwise_density(DensityRequest(u, m, p, probe, scheme))
            out += [float(t).hex() for t in np.atleast_1d(v)]
    return tuple(out)


def support5_bump():
    """exp(-|x|^2) in 2D with support radius 5, the criterion-4 field."""
    return fields.gaussian_bump(2, support_radius=5.0)


# name -> a thunk of the tensor-route residual at energy-nd's reduced scheme
RESIDUAL_SCHEME = QuadratureScheme(x_resolution=48, sphere_order=32, radial_level=2)
ENERGY_CASES = {
    "d2-residual-2^-11": lambda: F.sobolev_residual(
        support5_bump(), mf.indicator(2.0 ** -11, 2),
        fields.gradient_candidate(support5_bump()), RESIDUAL_SCHEME),
    "d2-residual-2^-12": lambda: F.sobolev_residual(
        support5_bump(), mf.indicator(2.0 ** -12, 2),
        fields.gradient_candidate(support5_bump()), RESIDUAL_SCHEME),
}

DENSITY_PINS = {
    'd1-bump': (
        '0x1.583b98fe3ff12p+0', '0x1.1b7e398809ebap+0', '0x1.d43d67a0d6538p-1',
        '0x1.56a61db5d88bap+0', '0x1.19f5eba9a2171p+0', '0x1.d1c2d3f1243acp-1',
        '0x1.3ef591036052cp+0', '0x1.06244a90227b2p+0', '0x1.b348dbbf21472p-1',
    ),
    'd1-linear': (
        '0x1.b3333333332e6p+1', '0x1.1bb7375f7abc6p+2', '0x1.71eb851eb84dcp+2',
        '0x1.b333333333337p+1', '0x1.1bb7375f7abfbp+2', '0x1.71eb851eb851fp+2',
        '0x1.b333333333374p+1', '0x1.1bb7375f7ac38p+2', '0x1.71eb851eb858dp+2',
    ),
    'd1-mixed-in': (
        '0x1.03a476de3c272p+2', '0x1.44d964187e1fdp+3', '0x1.b608bb1cd9015p+4',
        '0x1.042ba120a09d5p+2', '0x1.328117ce2a1b8p+3', '0x1.8634264ca63f7p+4',
        '0x1.0f47a480eb1bdp+1', '0x1.f1623850e9572p+1', '0x1.165e3cc20895bp+3',
    ),
    'd1-mixed-mid': (
        '0x1.cccd21753ae17p+0', '0x1.b8535bf96d26cp+0', '0x1.a6b9512475c58p+0',
        '0x1.cccccccccccc8p+0', '0x1.b961cd15e2d7cp+0', '0x1.a962fc962fc92p+0',
        '0x1.0f7abf2d17de3p+1', '0x1.244f07abfcacdp+1', '0x1.455bb1f77428ep+1',
    ),
    'd1-mixed-out': (
        '0x1.4cccccccccc92p+2', '0x1.0c8b68f5e627ap+3', '0x1.b1a3d70a3d6b6p+3',
        '0x1.4ccccccccccd3p+2', '0x1.0c9f4411f2552p+3', '0x1.b1f92c5f92c74p+3',
        '0x1.4cccccccccc50p+2', '0x1.0e43645564ef6p+3', '0x1.b8fce22ba1891p+3',
    ),
    'd1-step-mid': (
        '0x1.d576aca4cfcd2p-22', '0x1.474146db34c00p-21', '0x1.c854ae8bc36f4p-21',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.121181f188eb3p-1', '0x1.4c2230d75cce9p-1', '0x1.9668c55d7fd0bp-1',
    ),
    'd1-interval': (
        '0x1.52a1b866bb8cap-17', '0x1.f0249fac52c96p-17', '0x1.6b8e10e83156ep-16',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.48a2c6358b904p-1', '0x1.9b65e8275c804p-1', '0x1.04c9a2a1b34dcp+0',
    ),
    'd1-batch': (
        '0x1.03a476de3c272p+2', '0x1.cccd21753ae17p+0', '0x1.4cccccccccc92p+2',
        '0x1.fffffffffffa2p+2', '0x1.44d964187e1fdp+3', '0x1.b8535bf96d26cp+0',
        '0x1.0c8b68f5e627ap+3', '0x1.001800c02a0fcp+4', '0x1.b608bb1cd9015p+4',
        '0x1.a6b9512475c58p+0', '0x1.b1a3d70a3d6b6p+3', '0x1.003ffffffffd2p+5',
        '0x1.042ba120a09d5p+2', '0x1.cccccccccccc8p+0', '0x1.4ccccccccccd3p+2',
        '0x1.0000000000002p+3', '0x1.328117ce2a1b8p+3', '0x1.b961cd15e2d7cp+0',
        '0x1.0c9f4411f2552p+3', '0x1.0020013373496p+4', '0x1.8634264ca63f7p+4',
        '0x1.a962fc962fc92p+0', '0x1.b1f92c5f92c74p+3', '0x1.005555555555ap+5',
        '0x1.0f47a480eb1bdp+1', '0x1.0f7abf2d17de3p+1', '0x1.4cccccccccc50p+2',
        '0x1.ffffffffffed0p+2', '0x1.f1623850e9572p+1', '0x1.244f07abfcacdp+1',
        '0x1.0e43645564ef6p+3', '0x1.00c8c5917f0e8p+4', '0x1.165e3cc20895bp+3',
        '0x1.455bb1f77428ep+1', '0x1.b8fce22ba1891p+3', '0x1.021642c858f82p+5',
    ),
    'd1-batch-out': (
        '0x1.4cccccccccc92p+2', '0x1.fffffffffffa2p+2', '0x1.3ffffffffffcbp+3',
        '0x1.0c8b68f5e627ap+3', '0x1.001800c02a0fcp+4', '0x1.65dacff22b0fcp+4',
        '0x1.b1a3d70a3d6b6p+3', '0x1.003ffffffffd2p+5', '0x1.903ffffffffb8p+5',
        '0x1.4ccccccccccd3p+2', '0x1.0000000000002p+3', '0x1.4000000000008p+3',
        '0x1.0c9f4411f2552p+3', '0x1.0020013373496p+4', '0x1.65e1f7fd9653ep+4',
        '0x1.b1f92c5f92c74p+3', '0x1.005555555555ap+5', '0x1.9055555555568p+5',
        '0x1.4cccccccccc50p+2', '0x1.ffffffffffed0p+2', '0x1.3ffffffffff4ep+3',
        '0x1.0e43645564ef6p+3', '0x1.00c8c5917f0e8p+4', '0x1.6678c84f3e3b6p+4',
        '0x1.b8fce22ba1891p+3', '0x1.021642c858f82p+5', '0x1.921642c858ef0p+5',
    ),
    'd1-remainder-bump': (
        '0x1.05267ec9f21c6p-3', '0x1.254ea0b577da3p-5', '0x1.5d1175b52d0c4p-7',
        '0x1.2602460bd7686p-3', '0x1.68fc24485cdeap-5', '0x1.d2d8cbe150872p-7',
        '0x1.ea1880e57c5f2p-3', '0x1.1e74705616828p-3', '0x1.83c887bd96b44p-4',
    ),
    'd1-remainder-mixed-in': (
        '0x1.dba1b24d299c4p+1', '0x1.32d587a609098p+3', '0x1.9d5990818111ap+4',
        '0x1.da42c75ff98c6p+1', '0x1.1f74cb6f2e574p+3', '0x1.6d77777777776p+4',
        '0x1.be14d871c990fp+0', '0x1.ba2194011a976p+1', '0x1.fb99aa8900de5p+2',
    ),
    'd1-remainder-mixed-out': (
        '0x1.c5bf891b4ec2ep-3', '0x1.4cbc7624835a2p-4', '0x1.ffffffffff2fcp-6',
        '0x1.ffffffffffd30p-3', '0x1.999999798b96ap-4', '0x1.55555555554b6p-5',
        '0x1.d89d89d89d2c0p-2', '0x1.5555555555525p-2', '0x1.0b21642c858f8p-2',
    ),
    'd1-omega': (
        '0x1.4e083dfab52bep+0', '0x1.1429ae3856019p+0', '0x1.c9b2d471bcea2p-1',
        '0x1.3bdf014fd1ea2p+0', '0x1.06976e671c4b1p+0', '0x1.b5bcb27eb2e8cp-1',
        '0x1.fcb4993255a65p-1', '0x1.a936e6bae10acp-1', '0x1.64070b086db82p-1',
    ),
    'd1-omega-out': (
        '0x1.4cccccccccc92p+2', '0x1.0c8b68f5e627ap+3', '0x1.b1a3d70a3d6b6p+3',
        '0x1.4ccccccccccd3p+2', '0x1.0c9f4411f2552p+3', '0x1.b1f92c5f92c74p+3',
        '0x1.4cccccccccc50p+2', '0x1.0e43645564ef6p+3', '0x1.b8fce22ba1891p+3',
    ),
    'd2-bump': (
        '0x1.a4500c8a2930ap+1', '0x1.4cead2f11925fp+1', '0x1.0f34717f3e4acp+1',
        '0x1.a2bb30c1a27c4p+1', '0x1.4b17e8dbb4bb8p+1', '0x1.0d45aa4f71491p+1',
        '0x1.6ef607272aba0p+1', '0x1.13a760225adb8p+1', '0x1.ac6643e8e85b3p+0',
    ),
    'd2-linear': (
        '0x1.8669e5fc20354p+2', '0x1.a5e6f579cd7ddp+2', '0x1.d4796b7ee24dep+2',
        '0x1.8669e5fc2039ap+2', '0x1.a5e6f579cd82ap+2', '0x1.d4796b7ee252ep+2',
        '0x1.8669e5fc20398p+2', '0x1.a5e6f579cd826p+2', '0x1.d4796b7ee252cp+2',
    ),
    'd2-bump-scheme': (
        '0x1.a43cbe2d764c1p+1', '0x1.4cd70a2da5c28p+1', '0x1.0f3442bd2dcfap+1',
        '0x1.a3dbba5cccb98p+1', '0x1.4b5523ee33ff4p+1', '0x1.0d456c4dcaafcp+1',
        '0x1.6f31e822a7070p+1', '0x1.13b40dcd318f7p+1', '0x1.ac640bc2d1a56p+0',
    ),
    'd2-batch': (
        '0x1.a4500c8a2930ap+1', '0x1.b1cb62d04995dp+1', '0x1.45676e5e12c24p+1',
        '0x1.4cead2f11925fp+1', '0x1.5cc6202691240p+1', '0x1.c66037045a57ap+0',
        '0x1.0f34717f3e4acp+1', '0x1.20403aebe88bap+1', '0x1.46d2c93256fb6p+0',
        '0x1.a2bb30c1a27c4p+1', '0x1.b00b95e607236p+1', '0x1.4481277bd6f30p+1',
        '0x1.4b17e8dbb4bb8p+1', '0x1.5a90b9cae708cp+1', '0x1.c4d942a2f7e30p+0',
        '0x1.0d45aa4f71491p+1', '0x1.1dc0e5dc963ecp+1', '0x1.45bad1c0725b5p+0',
        '0x1.6ef607272aba0p+1', '0x1.708d2d016beccp+1', '0x1.1e4519a412260p+1',
        '0x1.13a760225adb8p+1', '0x1.11dd04113eb2ap+1', '0x1.7ef19fd54f464p+0',
        '0x1.ac6643e8e85b3p+0', '0x1.a3d26bf9e6bb0p+0', '0x1.0c9b8753e0aebp+0',
    ),
    'd2-remainder': (
        '0x1.a6861876609f9p-2', '0x1.eb28f75da2c84p-4', '0x1.3019558a83292p-5',
        '0x1.f25f1f9bb7911p-2', '0x1.366ad2dd5c752p-3', '0x1.95bf15b141828p-5',
        '0x1.8c8c6d5ec27d9p+0', '0x1.e6d91fb45815fp-1', '0x1.3fa5756b06b80p-1',
    ),
    'd2-disk-in': (
        '0x1.fad4cd3e43139p+2', '0x1.3cad11b4bb9c8p+4', '0x1.91e4bd91aa71ap+5',
        '0x1.27850528b8f6dp+3', '0x1.5cafd3432c4a3p+4', '0x1.a120852c4165ep+5',
        '0x1.8b3cde2c2e504p+2', '0x1.38df9714a63afp+3', '0x1.10737700c32c0p+4',
    ),
    'd2-disk-out': (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.5d3cacd9c9476p-1', '0x1.6f00e83537c42p-1', '0x1.8218bd9a97282p-1',
    ),
    'd2-box': (
        '0x1.1ad61bb8ef291p-2', '0x1.08499abe31530p-1', '0x1.ef078b779facep-1',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.c07f605b856f3p+2', '0x1.25dc743b458bcp+3', '0x1.8dbdb3985416ep+3',
    ),
    'd2-half-space': (
        '0x1.0248abe096374p+2', '0x1.2d78849167ba2p+3', '0x1.636036cdcd907p+4',
        '0x1.77322dbf0690bp+2', '0x1.a848974d47b8ep+3', '0x1.e34ae2954cb48p+4',
        '0x1.25041d0644f1ap+2', '0x1.c00758b0e969bp+2', '0x1.70f8f0121d036p+3',
    ),
    'd2-omega': (
        '0x1.a44efae77d3cdp+1', '0x1.4ce9dd6702036p+1', '0x1.0f339521a9834p+1',
        '0x1.a2bb30c1a27c4p+1', '0x1.4b17e8dbb4bb8p+1', '0x1.0d45aa4f71491p+1',
        '0x1.b73f4e1b3ca46p+0', '0x1.3998dbee8372ap+0', '0x1.d72fd8a64bf8ap-1',
    ),
    'd2-omega-box': (
        '0x1.a4500c8a2930ap+1', '0x1.4cead2f11925fp+1', '0x1.0f34717f3e4acp+1',
        '0x1.a2bb30c1a27c4p+1', '0x1.4b17e8dbb4bb8p+1', '0x1.0d45aa4f71491p+1',
        '0x1.6ef607272aba0p+1', '0x1.13a760225adb8p+1', '0x1.ac6643e8e85b3p+0',
    ),
    'd3-bump': (
        '0x1.556cc5cfeed98p+2', '0x1.f68728edd1662p+1', '0x1.80fcdc4606f16p+1',
        '0x1.54b8596167404p+2', '0x1.f4cb32f0cb454p+1', '0x1.7f11ee211bf63p+1',
        '0x1.2d89c5636455ep+2', '0x1.9a869c5829ca2p+1', '0x1.2179603c97ed0p+1',
    ),
    'd3-remainder': (
        '0x1.b02e038f75555p-1', '0x1.fd110f6fd1b18p-3', '0x1.3bb95e9ee08e0p-4',
        '0x1.e7b13258dab41p-1', '0x1.2a73138f83700p-2', '0x1.7ae9fea72055cp-4',
        '0x1.abc9e2c16b3ccp+1', '0x1.fa9dbbfc48c7ep+0', '0x1.3a9a795e9ddfbp+0',
    ),
    'd3-linear-small': (
        '0x1.d6ab31d79ea3cp+3', '0x1.198a45fa6205ap+4', '0x1.5fdc05b303b2ep+4',
        '0x1.d6aad2bf24557p+3', '0x1.198a0d183c45dp+4', '0x1.5fdbbe9bba776p+4',
        '0x1.d6aad2bf24548p+3', '0x1.198a0d183c454p+4', '0x1.5fdbbe9bba76cp+4',
    ),
    'd3-batch-small': (
        '0x1.55c8d3ab471f0p+2', '0x1.3dcf319d6e088p+2', '0x1.5104cb8cd9e57p+2',
        '0x1.f6a6222c3f53ap+1', '0x1.c38a3d040f0cep+1', '0x1.eb3dd3117d19ep+1',
        '0x1.80fcdc4430488p+1', '0x1.4df29e30a91f8p+1', '0x1.75742c6a68560p+1',
        '0x1.557cf37d69699p+2', '0x1.3d69e077ba922p+2', '0x1.50d65569b80cep+2',
        '0x1.f51835d2e35d5p+1', '0x1.c1c3c5c3905fcp+1', '0x1.ea58f215cc81fp+1',
        '0x1.7f11ee20992c7p+1', '0x1.4bf774b9ce234p+1', '0x1.7469d9499724ap+1',
        '0x1.2d89dc46a3611p+2', '0x1.09f44db3a7cd0p+2', '0x1.3cb5f179b3d2fp+2',
        '0x1.9a86c869a2418p+1', '0x1.5240a364c9a38p+1', '0x1.bcb1645e7f9a4p+1',
        '0x1.21795e0d9970ap+1', '0x1.bf364c0277764p+0', '0x1.43b5f193ec0dcp+1',
    ),
    'd3-ball': (
        '0x1.52709496b87a2p-19', '0x1.d2ff61a010533p-19', '0x1.4246b503cb35fp-18',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.3add315427f5bp+2', '0x1.5f465ac6a9d7bp+2', '0x1.8a85512f5a1abp+2',
    ),
}
ENERGY_PINS = {
    'd2-residual-2^-11': '0x1.9761d4b4d6bfdp-8',
    'd2-residual-2^-12': '0x1.9761c3576d784p-9',
}


@pytest.mark.parametrize("name", sorted(DENSITY_CASES))
def test_densities_keep_their_pinned_bits(name):
    assert case_values(name) == DENSITY_PINS[name]


def test_a_power_law_remainder_far_from_the_jump_meets_its_closed_form():
    # at 1.3 the mixed field is x^2 on the whole kernel ball, whose
    # remainder h^2 makes the density 2 int rho r^p dr = 2 delta/(delta + p)
    u, delta = mixed_field(), 0.3
    for p in EXPONENTS:
        value = F.remainder_density(DensityRequest(u, mf.power_law(delta, 1), p, [1.3]))
        assert value == pytest.approx(2.0 * delta / (delta + p), rel=1e-12, abs=0), p


@pytest.mark.parametrize("name", sorted(ENERGY_CASES))
def test_tensor_energies_and_residuals_keep_their_pinned_bits(name):
    assert float(ENERGY_CASES[name]()).hex() == ENERGY_PINS[name]


# ---------------------------------------------------------------------------
# the shared row serves probes whose breakpoints miss the kernel ball
# ---------------------------------------------------------------------------

def spy(monkeypatch, module, name):
    """Record every call of module.name, which still runs."""
    calls, real = [], getattr(module, name)

    def record(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("probe", [[1.3], [[1.3], [-2.0], [2.5]]], ids=["one", "batch"])
@pytest.mark.parametrize("remainder", [False, True], ids=["density", "remainder"])
def test_breakpoints_outside_the_kernel_ball_take_the_shared_row(monkeypatch, probe,
                                                                  remainder):
    u, m = mixed_field(), mf.indicator(0.25, 1)
    probes = fields.as_points(probe, 1)
    sub = u.gradient_many(probes) if remainder else None
    # the breakpoint-free row, built (and cached) before the spy
    plain = F._polar_many(u, m, 1.5, probes, np.empty((len(probes), 0)), subtract=sub)
    rules = spy(monkeypatch, Q, "radial_rules")
    req = DensityRequest(u, m, 1.5, probe)
    got = F.remainder_density(req) if remainder else F.pointwise_density(req)
    assert rules == []
    np.testing.assert_array_equal(np.atleast_1d(got), plain)


def mixed_density_quad(m, x):
    """int rho(|h|) |u(x + h) - u(x)| / |h| dh for the mixed field at
    0 < x < r_max, by quad cut at the jump h = -x."""
    from scipy.integrate import quad
    u = lambda y: y * y + (1.0 if y > 0.0 else 0.0)
    r_max = m.quadrature_radius()

    def f(h):
        return float(m.evaluate(np.array([abs(h)]))[0]) * abs(u(x + h) - u(x)) / abs(h)
    return sum(quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
               for a, b in ((-r_max, -x), (-x, 0.0), (0.0, r_max)))


def test_a_breakpoint_inside_the_kernel_ball_is_still_graded(monkeypatch):
    u, m, x = mixed_field(), mf.indicator(0.25, 1), 0.1
    ungraded = F._polar_many(u, m, 1.0, np.array([[x]]), np.empty((1, 0)))[0]
    rules = spy(monkeypatch, Q, "radial_rules")
    got = F.pointwise_density(DensityRequest(u, m, 1.0, [x]))
    # one rule, split and graded at the jump's distance
    assert len(rules) == 1
    np.testing.assert_array_equal(rules[0]["breakpoints"], [[x]])
    exact = mixed_density_quad(m, x)
    assert got == pytest.approx(exact, rel=1e-13, abs=0)
    assert abs(ungraded - exact) > 1e-6 * exact


# ---------------------------------------------------------------------------
# offset tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_offset_tables_are_shared_and_read_only(d):
    # one array per (mollifier, level, sphere rule), the default level
    # spelt either way: the key is the shared row itself
    row, sphere = Q.kernel_radial_rule(mf.gaussian(64.0, d)), Q.sphere_rule(d)
    table = F._offset_table(row, sphere)
    again = Q.kernel_radial_rule(mf.gaussian(64.0, d), Q.DEFAULT_RADIAL_LEVEL)
    assert F._offset_table(again, Q.sphere_rule(d)) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    with pytest.raises(ValueError):
        table[1:][0, 0] = 1.0
    r = row.nodes
    # a row of ones, then row 1 + c holds r_j sigma_k[c] at j K + k: the
    # products of the nodes
    assert table.shape == (1 + d, r.size * sphere.nodes.shape[0])
    assert np.all(table[0] == 1.0)
    np.testing.assert_array_equal(table[1:].reshape(d, r.size, -1),
                                  r[:, None] * sphere.nodes.T[:, None, :])


def test_only_rows_that_fit_one_block_cache_a_table():
    F._offset_table.cache_clear()
    # a default 3D density is 128 x 2048 = 262144 points: no table
    u3 = fields.gaussian_bump(3)
    F.pointwise_density(DensityRequest(u3, mf.indicator(0.25, 3), 1.0, [0.3, 0.0, 0.1]))
    assert F._offset_table.cache_info().currsize == 0
    # a default 2D density is 128 x 64 points, and a residual on another
    # sphere rule takes a table of its own; a sliced energy takes none
    u2 = fields.gaussian_bump(2)
    F.pointwise_density(DensityRequest(u2, mf.indicator(0.25, 2), 1.0, [0.3, 0.1]))
    assert F._offset_table.cache_info().currsize == 1
    F.energy(u2, mf.indicator(0.5, 2), 1.0, QuadratureScheme(x_resolution=24))
    assert F._offset_table.cache_info().currsize == 1
    F.sobolev_residual(u2, mf.indicator(0.5, 2), fields.gradient_candidate(u2),
                       QuadratureScheme(x_resolution=8, sphere_order=8, radial_level=1))
    assert F._offset_table.cache_info().currsize == 2
    # and the cache holds a bounded number of them
    assert F._offset_table.cache_info().maxsize == F._OFFSET_CACHE_SIZE


# ---------------------------------------------------------------------------
# BLAS-built blocks: the nodes, the candidate term, non-finite values
# ---------------------------------------------------------------------------

def recorded_nodes(d, scheme, probes):
    """The node batches the engine hands a field, as copies, for a density
    at the probes (recorded, then the offset table they were built from)."""
    calls = []

    def ev(q):
        calls.append(q.copy())
        return np.exp(-np.einsum("ij,ij->i", q, q))
    u = fields.AnalyticField(d, ev, support_radius=4e6, label="recording")
    m = mf.indicator(0.25, d)
    F.pointwise_density(DensityRequest(u, m, 1.0, probes, scheme))
    row = Q.kernel_radial_rule(m, scheme.radial_level)
    return [c for c in calls if c.shape[0] > len(probes)], F._offset_table(
        row, scheme.sphere(d))


@pytest.mark.parametrize("d,scheme", [(2, QuadratureScheme()),
                                      (3, QuadratureScheme(sphere_order=4, radial_level=2))],
                         ids=["d2-default", "d3-shared-table"])
def test_blas_built_nodes_are_bit_identical(d, scheme):
    # far and tiny coordinates, signed zeros, and probes exactly at
    # R (1 - 1e-9) - r_max, the edge of the unmasked blocks
    reach = 4e6 * (1.0 - 1e-9) - 0.25
    rows = [[1e6, -1e6 + 0.3], [1e-300, -1e-300], [0.0, -0.0], [-0.0, 0.0],
            [reach, 0.0], [0.0, -reach], [3e-5, 0.7], [-0.0, 1e6]]
    probes = np.array([row + [-0.0 if i % 2 else 1e-300][:d - 2] for i, row in enumerate(rows)])
    batches, table = recorded_nodes(d, scheme, probes)
    offsets = table[1:]
    # every block holds b > 1 probes, so every node came from the product
    # [x_c, e_c] @ [1; r sigma]
    sizes = [len(c) // offsets.shape[1] for c in batches]
    assert sum(sizes) == len(probes) and min(sizes) > 1
    got = np.concatenate(batches)
    want = (probes[:, None, :] + offsets.T[None]).reshape(-1, d)
    # bit for bit, signed zeros included: x 1 + 1 t + 0 t' has exact
    # products and rounds once, to x + t.  Only a node of -0.0 (x and t
    # both -0.0) would come out +0.0, and no offset is zero (r > 0, and
    # no sphere rule has a zero coordinate); a probe coordinate of -0.0
    # gives the offset itself either way
    assert np.all(offsets != 0.0)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def column_bump(d):
    """exp(-sum_c a_c (x_c - c_c)^2) summed column by column, so a node's
    value does not depend on the layout it comes in, with its gradient."""
    c, a = np.array([0.3, -0.2, 0.1])[:d], np.array([1.2, 0.9, 1.1])[:d]

    def ev(q):
        s = a[0] * (q[:, 0] - c[0]) ** 2
        for i in range(1, d):
            s = s + a[i] * (q[:, i] - c[i]) ** 2
        return np.exp(-s)
    return fields.AnalyticField(d, ev, lambda q: -2.0 * a * (q - c) * ev(q)[:, None],
                                support_radius=6.0, label="column bump")


@pytest.mark.parametrize("d,scheme", [(2, QuadratureScheme()),
                                      (3, QuadratureScheme(sphere_order=4, radial_level=2))],
                         ids=["d2-default", "d3-shared-table"])
def test_a_remainder_density_does_not_depend_on_its_batch(d, scheme):
    # a probe's candidate term is one BLAS product with the offsets,
    # whether its block holds 1, 2 or b probes, so each value is the lone
    # probe's, bit for bit
    u, m = column_bump(d), mf.indicator(2.0 ** -11, d)
    probes = np.random.default_rng(4).uniform(-0.5, 0.5, size=(11, d))
    alone = [F.remainder_density(DensityRequest(u, m, 1.0, x, scheme)) for x in probes]
    for size in (2, 5, 11):
        np.testing.assert_array_equal(
            np.concatenate([F.remainder_density(DensityRequest(u, m, 1.0, probes[i:i + size],
                                                               scheme))
                            for i in range(0, len(probes), size)]), alone)


def old_and_exact_remainders(u, m, p, probes, scheme):
    """The remainder densities over the engine's float64 node values with
    the old candidate term r (U . sigma) in float64, and the same
    quadrature sum with it taken in extended precision."""
    d = u.dimension
    sphere = scheme.sphere(d)
    row = Q.kernel_radial_rule(m, scheme.radial_level)
    r = row.nodes
    wr = row.weights / r ** p
    wr[r < F._REMAINDER_R_FLOOR * m.quadrature_radius()] = 0.0
    nodes = probes[:, None, None, :] + r[:, None, None] * sphere.nodes
    vals = u.eval_many(nodes.reshape(-1, d)).reshape(len(probes), r.size, -1)
    u0, grad = u.eval_many(probes), u.gradient_many(probes)
    out = []
    for t in (np.float64, np.longdouble):
        lin = r.astype(t)[:, None] * (grad.astype(t) @ sphere.nodes.T.astype(t))[:, None, :]
        F_ = np.abs(vals.astype(t) - u0.astype(t)[:, None, None] - lin) ** p
        out.append(((F_ @ sphere.weights.astype(t)) @ wr.astype(t)).astype(float))
    return out


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("k", [7, 11])
@pytest.mark.parametrize("d,scheme", [(2, QuadratureScheme()),
                                      (3, QuadratureScheme(sphere_order=4, radial_level=2))],
                         ids=["d2-default", "d3-shared-table"])
def test_the_candidate_term_u_dot_r_sigma_is_at_least_as_accurate(d, scheme, k, p):
    # U . (r sigma) rounds the candidate term once less than r (U . sigma);
    # against the extended-precision sum it is no further off, over 20
    # probes in blocks of b > 1 (a 20-probe 2D batch at 2^-11 measured
    # 4.9e-15 against 1.2e-13)
    u, m = column_bump(d), mf.indicator(2.0 ** -k, d)
    probes = np.random.default_rng(3).uniform(-0.5, 0.5, size=(20, d))
    new = F.remainder_density(DensityRequest(u, m, p, probes, scheme))
    old, exact = old_and_exact_remainders(u, m, p, probes, scheme)
    err = lambda v: np.max(np.abs(v - exact) / exact)
    assert err(new) <= err(old)


def cap_field(nan_outside):
    """(1 - |x|^2)^(3/2) on the unit disk, C^1 across its edge; beyond it
    the evaluator is NaN (nan_outside) or 0, and the support mask 0."""
    def root(q):
        s = 1.0 - np.einsum("ij,ij->i", q, q)
        with np.errstate(invalid="ignore"):
            return np.sqrt(s if nan_outside else np.maximum(s, 0.0))
    return fields.AnalyticField(2, lambda q: root(q) ** 3,
                                lambda q: -3.0 * q * root(q)[:, None],
                                support_radius=1.0, label="cap")


def test_nan_beyond_the_support_is_ignored():
    # blocks reuse their node buffer in place; the support mask still
    # zeroes what the evaluator returns beyond R before any sum
    m, scheme = mf.indicator(0.25, 2), QuadratureScheme(x_resolution=24)

    def values(u):
        return [F.sobolev_residual(u, m, fields.gradient_candidate(u), scheme),
                F.pointwise_density(DensityRequest(u, m, 1.0, [0.95, 0.0])),
                *F.remainder_density(DensityRequest(u, m, 1.5, [[0.95, 0.0], [0.0, 0.9],
                                                                [0.2, 0.1]]))]
    got = values(cap_field(True))
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, values(cap_field(False)))


def test_a_nan_at_one_interior_node_of_a_residual_is_refused():
    calls = []

    def ev(q):
        calls.append(q.copy())
        return np.exp(-np.einsum("ij,ij->i", q, q))
    m, scheme = mf.indicator(0.5, 2), QuadratureScheme(x_resolution=8, radial_level=2)
    ones = fields.VectorField(2, lambda q: np.ones_like(q))
    F.sobolev_residual(fields.AnalyticField(2, ev, support_radius=6.0), m, ones, scheme)
    batches = [c for c in calls if c.shape[0] > 64]
    assert len(batches) > 2
    # a node of the third block, inside the support
    bad = batches[2][123].copy()
    assert np.linalg.norm(bad) < 6.0

    def nan_ev(q):
        v = np.exp(-np.einsum("ij,ij->i", q, q))
        v[np.all(q == bad, axis=1)] = np.nan
        return v
    with pytest.raises(EvaluationError) as info:
        F.sobolev_residual(fields.AnalyticField(2, nan_ev, support_radius=6.0), m, ones,
                           scheme)
    e = info.value
    assert e.stage == "polar" and np.isnan(e.value)
    np.testing.assert_array_equal(e.centre + e.r * e.sigma, bad)
