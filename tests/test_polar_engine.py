"""The polar engine's shared tables, its shared row, and its pinned bits.

The pins are float.hex values taken before the engine built its node
offsets once per (mollifier, level, sphere rule) and sent probes whose
breakpoints all miss the kernel ball to the shared breakpoint-free row:
neither step may move a bit.  2D/3D energies left the engine for the
sliced route (tests/test_sliced.py holds them to their oracle); the
Sobolev residuals, the engine's last integrated functional, keep their
pins.
"""

import numpy as np
import pytest

from bbmlab import fields, functionals as F, mollifiers as mf, quadrature as Q
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
        '0x1.3ef5c527d73ecp+0', '0x1.06244d2b20fa2p+0', '0x1.b348dbcda2ddep-1',
    ),
    'd1-linear': (
        '0x1.b3333333332e6p+1', '0x1.1bb7375f7abc6p+2', '0x1.71eb851eb84dcp+2',
        '0x1.b333333333337p+1', '0x1.1bb7375f7abfbp+2', '0x1.71eb851eb851fp+2',
        '0x1.b33333354391ep+1', '0x1.1bb737617f6e4p+2', '0x1.71eb85223a8c2p+2',
    ),
    'd1-mixed-in': (
        '0x1.03a476de3c272p+2', '0x1.44d964187e1fdp+3', '0x1.b608bb1cd9015p+4',
        '0x1.042ba120a09d5p+2', '0x1.328117ce2a1b8p+3', '0x1.8634264ca63f7p+4',
        '0x1.0f47a47e2448cp+1', '0x1.f162384f0c80ap+1', '0x1.165e3cc1c1826p+3',
    ),
    'd1-mixed-mid': (
        '0x1.cccd21753ae17p+0', '0x1.b8535bf96d26cp+0', '0x1.a6b9512475c58p+0',
        '0x1.cccccccccccc8p+0', '0x1.b961cd15e2d7cp+0', '0x1.a962fc962fc92p+0',
        '0x1.0f7abf2f3753ap+1', '0x1.244f07af0207ep+1', '0x1.455bb1fb4662ep+1',
    ),
    'd1-mixed-out': (
        '0x1.4cccccccccc92p+2', '0x1.0c8b68f5e627ap+3', '0x1.b1a3d70a3d6b6p+3',
        '0x1.4ccccccccccd3p+2', '0x1.0c9f4411f2552p+3', '0x1.b1f92c5f92c74p+3',
        '0x1.4cccccd0c5e97p+2', '0x1.0e43645a33017p+3', '0x1.b8fce235f61c1p+3',
    ),
    'd1-step-mid': (
        '0x1.d576aca4cfcd2p-22', '0x1.474146db34c00p-21', '0x1.c854ae8bc36f4p-21',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.121181f188eb4p-1', '0x1.4c2230d75ccecp-1', '0x1.9668c55d7fd0ep-1',
    ),
    'd1-interval': (
        '0x1.52a1b866bb8cap-17', '0x1.f0249fac52c96p-17', '0x1.6b8e10e83156ep-16',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.48a2c6358b904p-1', '0x1.9b65e8275c803p-1', '0x1.04c9a2a1b34dcp+0',
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
        '0x1.0f47a47e2448cp+1', '0x1.0f7abf2f3753ap+1', '0x1.4cccccd0c5e97p+2',
        '0x1.00000000d707ap+3', '0x1.f162384f0c80ap+1', '0x1.244f07af0207ep+1',
        '0x1.0e43645a33017p+3', '0x1.00c8c592c1a84p+4', '0x1.165e3cc1c1826p+3',
        '0x1.455bb1fb4662ep+1', '0x1.b8fce235f61c1p+3', '0x1.021642ca071a6p+5',
    ),
    'd1-batch-out': (
        '0x1.4cccccccccc92p+2', '0x1.fffffffffffa2p+2', '0x1.3ffffffffffcbp+3',
        '0x1.0c8b68f5e627ap+3', '0x1.001800c02a0fcp+4', '0x1.65dacff22b0fcp+4',
        '0x1.b1a3d70a3d6b6p+3', '0x1.003ffffffffd2p+5', '0x1.903ffffffffb8p+5',
        '0x1.4ccccccccccd3p+2', '0x1.0000000000002p+3', '0x1.4000000000008p+3',
        '0x1.0c9f4411f2552p+3', '0x1.0020013373496p+4', '0x1.65e1f7fd9653ep+4',
        '0x1.b1f92c5f92c74p+3', '0x1.005555555555ap+5', '0x1.9055555555568p+5',
        '0x1.4cccccd0c5e97p+2', '0x1.00000000d707ap+3', '0x1.400000010377cp+3',
        '0x1.0e43645a33017p+3', '0x1.00c8c592c1a84p+4', '0x1.6678c850f1724p+4',
        '0x1.b8fce235f61c1p+3', '0x1.021642ca071a6p+5', '0x1.921642cae1b6cp+5',
    ),
    'd1-remainder-bump': (
        '0x1.05267ec9f21c6p-3', '0x1.254ea0b577da3p-5', '0x1.5d1175b52d0c4p-7',
        '0x1.2602460bd7686p-3', '0x1.68fc24485cdeap-5', '0x1.d2d8cbe150872p-7',
        '0x1.ea1880e5c0184p-3', '0x1.1e74705616873p-3', '0x1.83c887bd96b43p-4',
    ),
    'd1-remainder-mixed-in': (
        '0x1.dba1b24d299c4p+1', '0x1.32d587a609098p+3', '0x1.9d5990818111ap+4',
        '0x1.da42c75ff98c6p+1', '0x1.1f74cb6f2e574p+3', '0x1.6d77777777776p+4',
        '0x1.be14d871bb3a4p+0', '0x1.ba2193bf9d58cp+1', '0x1.fb99aa8900e18p+2',
    ),
    'd1-remainder-mixed-out': (
        '0x1.c5bf891b4ec2ep-3', '0x1.4cbc7624835a2p-4', '0x1.ffffffffff2fcp-6',
        '0x1.ffffffffffd30p-3', '0x1.999999798b96ap-4', '0x1.55555555554b6p-5',
        '0x1.d89d89d845792p-2', '0x1.555555555537ep-2', '0x1.0b21642c858f8p-2',
    ),
    'd1-omega': (
        '0x1.4e083dfab52bep+0', '0x1.1429ae3856019p+0', '0x1.c9b2d471bcea2p-1',
        '0x1.3bdf014fd1ea2p+0', '0x1.06976e671c4b1p+0', '0x1.b5bcb27eb2e8cp-1',
        '0x1.fcb4993cf95bdp-1', '0x1.a936e6c80e548p-1', '0x1.64070b16ef4eap-1',
    ),
    'd1-omega-out': (
        '0x1.4cccccccccc92p+2', '0x1.0c8b68f5e627ap+3', '0x1.b1a3d70a3d6b6p+3',
        '0x1.4ccccccccccd3p+2', '0x1.0c9f4411f2552p+3', '0x1.b1f92c5f92c74p+3',
        '0x1.4cccccd0c5e97p+2', '0x1.0e43645a33017p+3', '0x1.b8fce235f61c1p+3',
    ),
    'd2-bump': (
        '0x1.a4500c8a2930ap+1', '0x1.4cead2f11925fp+1', '0x1.0f34717f3e4acp+1',
        '0x1.a2bb30c1a27c4p+1', '0x1.4b17e8dbb4bb8p+1', '0x1.0d45aa4f71491p+1',
        '0x1.6ef62a2a046b2p+1', '0x1.13a76183744b0p+1', '0x1.ac6643f556174p+0',
    ),
    'd2-linear': (
        '0x1.8669e5fc20354p+2', '0x1.a5e6f579cd7ddp+2', '0x1.d4796b7ee24dep+2',
        '0x1.8669e5fc2039ap+2', '0x1.a5e6f579cd82ap+2', '0x1.d4796b7ee252ep+2',
        '0x1.8669e5fc2039cp+2', '0x1.a5e6f579cd824p+2', '0x1.d4796b7ee252dp+2',
    ),
    'd2-bump-scheme': (
        '0x1.a43cbe2d764c1p+1', '0x1.4cd70a2da5c28p+1', '0x1.0f3442bd2dcfap+1',
        '0x1.a3dbba5cccb98p+1', '0x1.4b5523ee33ff4p+1', '0x1.0d456c4dcaafcp+1',
        '0x1.6f2faafffcfc5p+1', '0x1.13b3e528c3364p+1', '0x1.ac640d6650b5ep+0',
    ),
    'd2-batch': (
        '0x1.a4500c8a2930ap+1', '0x1.b1cb62d04995dp+1', '0x1.45676e5e12c24p+1',
        '0x1.4cead2f11925fp+1', '0x1.5cc6202691240p+1', '0x1.c66037045a57ap+0',
        '0x1.0f34717f3e4acp+1', '0x1.20403aebe88bap+1', '0x1.46d2c93256fb6p+0',
        '0x1.a2bb30c1a27c4p+1', '0x1.b00b95e607236p+1', '0x1.4481277bd6f30p+1',
        '0x1.4b17e8dbb4bb8p+1', '0x1.5a90b9cae708cp+1', '0x1.c4d942a2f7e30p+0',
        '0x1.0d45aa4f71491p+1', '0x1.1dc0e5dc963ecp+1', '0x1.45bad1c0725b5p+0',
        '0x1.6ef62a2a046b2p+1', '0x1.708d4271b378ep+1', '0x1.1e451311c2557p+1',
        '0x1.13a76183744b0p+1', '0x1.11dd04cf4b1f2p+1', '0x1.7ef19fa3b1cb3p+0',
        '0x1.ac6643f556174p+0', '0x1.a3d26c09d6047p+0', '0x1.0c9b87572565ap+0',
    ),
    'd2-remainder': (
        '0x1.a6861876609f9p-2', '0x1.eb28f75da2c83p-4', '0x1.3019558a83292p-5',
        '0x1.f25f1f9bb7912p-2', '0x1.366ad2dd5c753p-3', '0x1.95bf15b141828p-5',
        '0x1.8c8c6d1e10ac3p+0', '0x1.e6d91e93a80f2p-1', '0x1.3fa57557b9416p-1',
    ),
    'd2-disk-in': (
        '0x1.fad4cd3e43139p+2', '0x1.3cad11b4bb9c8p+4', '0x1.91e4bd91aa71ap+5',
        '0x1.27850528b8f6dp+3', '0x1.5cafd3432c4a3p+4', '0x1.a120852c4165ep+5',
        '0x1.8c72329006950p+2', '0x1.3a42f2801fc78p+3', '0x1.1237a71e922c2p+4',
    ),
    'd2-disk-out': (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.5c7c9f3ffb2e0p-1', '0x1.6e2b9d0da946ep-1', '0x1.812c338b65ab8p-1',
    ),
    'd2-box': (
        '0x1.1ad61bb8ef291p-2', '0x1.08499abe31530p-1', '0x1.ef078b779facep-1',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.bf0d72c69d216p+2', '0x1.24696ad8648a2p+3', '0x1.8ae3c8f490f76p+3',
    ),
    'd2-half-space': (
        '0x1.0248abe096374p+2', '0x1.2d78849167ba2p+3', '0x1.636036cdcd907p+4',
        '0x1.77322dbf0690bp+2', '0x1.a848974d47b8ep+3', '0x1.e34ae2954cb48p+4',
        '0x1.2615c9d36f53ap+2', '0x1.c24943a6351eap+2', '0x1.736f310c08c7cp+3',
    ),
    'd2-omega': (
        '0x1.a44efae77d3cdp+1', '0x1.4ce9dd6702036p+1', '0x1.0f339521a9834p+1',
        '0x1.a2bb30c1a27c4p+1', '0x1.4b17e8dbb4bb8p+1', '0x1.0d45aa4f71491p+1',
        '0x1.b73e6b4c76756p+0', '0x1.398f59f9ef23cp+0', '0x1.d712a2cf8c4aep-1',
    ),
    'd2-omega-box': (
        '0x1.a4500c8a2930ap+1', '0x1.4cead2f11925fp+1', '0x1.0f34717f3e4acp+1',
        '0x1.a2bb30c1a27c4p+1', '0x1.4b17e8dbb4bb8p+1', '0x1.0d45aa4f71491p+1',
        '0x1.6ef62a2a046b2p+1', '0x1.13a76183744b0p+1', '0x1.ac6643f556174p+0',
    ),
    'd3-bump': (
        '0x1.556cc5cfeed98p+2', '0x1.f68728edd1662p+1', '0x1.80fcdc4606f16p+1',
        '0x1.54b8596167404p+2', '0x1.f4cb32f0cb454p+1', '0x1.7f11ee211bf63p+1',
        '0x1.2d89c89dad9c2p+2', '0x1.9a869b7b6e3cbp+1', '0x1.21795eef0c534p+1',
    ),
    'd3-remainder': (
        '0x1.b02e038f75555p-1', '0x1.fd110f6fd1b18p-3', '0x1.3bb95e9ee08e0p-4',
        '0x1.e7b13258dab41p-1', '0x1.2a73138f83700p-2', '0x1.7ae9fea72055cp-4',
        '0x1.abca9c6bf12ffp+1', '0x1.fa9de6153fa80p+0', '0x1.3a9a7bf73a9bcp+0',
    ),
    'd3-linear-small': (
        '0x1.d6ab31d79ea3cp+3', '0x1.198a45fa6205ap+4', '0x1.5fdc05b303b2ep+4',
        '0x1.d6aad2bf24557p+3', '0x1.198a0d183c45dp+4', '0x1.5fdbbe9bba776p+4',
        '0x1.d6aad2bf24557p+3', '0x1.198a0d183c45cp+4', '0x1.5fdbbe9bba774p+4',
    ),
    'd3-batch-small': (
        '0x1.55c8d3ab471f0p+2', '0x1.3dcf319d6e088p+2', '0x1.5104cb8cd9e57p+2',
        '0x1.f6a6222c3f53ap+1', '0x1.c38a3d040f0cep+1', '0x1.eb3dd3117d19ep+1',
        '0x1.80fcdc4430488p+1', '0x1.4df29e30a91f8p+1', '0x1.75742c6a68560p+1',
        '0x1.557cf37d69699p+2', '0x1.3d69e077ba922p+2', '0x1.50d65569b80cep+2',
        '0x1.f51835d2e35d5p+1', '0x1.c1c3c5c3905fcp+1', '0x1.ea58f215cc81fp+1',
        '0x1.7f11ee20992c7p+1', '0x1.4bf774b9ce234p+1', '0x1.7469d9499724ap+1',
        '0x1.2d8862e8dc3e8p+2', '0x1.09f5461c7328fp+2', '0x1.3cb75032bf7f8p+2',
        '0x1.9a86833a640f8p+1', '0x1.5240baacd64a0p+1', '0x1.bcb1a796c7572p+1',
        '0x1.21794c81b7b4ep+1', '0x1.bf36283448c03p+0', '0x1.43b5e7fa0699ep+1',
    ),
    'd3-ball': (
        '0x1.52709496b87a2p-19', '0x1.d2ff61a010533p-19', '0x1.4246b503cb35fp-18',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x1.3bfc632a42b58p+2', '0x1.5fd48b9b12644p+2', '0x1.8a51e838e83e4p+2',
    ),
}
ENERGY_PINS = {
    'd2-residual-2^-11': '0x1.9761d4b4d6beap-8',
    'd2-residual-2^-12': '0x1.9761c3576d784p-9',
}


@pytest.mark.parametrize("name", sorted(DENSITY_CASES))
def test_densities_keep_their_pinned_bits(name):
    assert case_values(name) == DENSITY_PINS[name]


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
    # one table per (mollifier, level, sphere rule), the default level
    # spelt either way: the key is the shared row itself
    row, sphere = Q.kernel_radial_rule(mf.gaussian(64.0, d)), Q.sphere_rule(d)
    table = F._offset_table(row, sphere)
    again = Q.kernel_radial_rule(mf.gaussian(64.0, d), Q.DEFAULT_RADIAL_LEVEL)
    assert F._offset_table(again, Q.sphere_rule(d)) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    r = row.nodes
    # row c holds r_j sigma_k[c] at j K + k: the products of the nodes
    assert table.shape == (d, r.size * sphere.nodes.shape[0])
    np.testing.assert_array_equal(table.reshape(d, r.size, -1),
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
