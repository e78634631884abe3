"""How much of a photon leaks into the wrong temporal mode after a gravitational shift."""

import numpy as np

from gravlink import (
    Body,
    GaussianPacket,
    Observer,
    ShiftParameter,
    Sign,
    mismatch_q,
    overlap_gaussian_closed,
    overlap_quadrature,
    shift_parameter,
)

EARTH = Body(mass=5.972e24, radius=6_371_000.0)
GROUND = Observer(radius=6_371_000.0)

LINKS = [
    ("ground -> ISS", Observer(6_771_000.0, "orbit")),
    ("ground -> far field", Observer(float("inf"))),
]

SOURCES = [
    ("SPDC, 1 MHz", GaussianPacket(peak_hz=700e12, width_hz=1e6)),
    ("Rb line, 5 MHz", GaussianPacket(peak_hz=380e12, width_hz=5e6)),
    ("broadband, 1 THz", GaussianPacket(peak_hz=700e12, width_hz=1e12)),
]


def main():
    print("closed-form mismatch, q = 1 - |Delta|^2")
    print(f"{'link':22s} {'source':16s} {'delta':>11s} {'|Delta|':>18s} {'q':>12s}")
    for link_name, receiver in LINKS:
        shift = shift_parameter(EARTH, GROUND, receiver)
        for src_name, packet in SOURCES:
            res = overlap_gaussian_closed(packet, shift)
            q = mismatch_q(res.delta)
            print(f"{link_name:22s} {src_name:16s} {shift.delta:11.3e} "
                  f"{abs(res.delta):18.15f} {q:12.5e}")
    print()

    # cross-check one case by direct quadrature: build the received
    # packet from the fourth-root factor k = 1 + delta (blueshift)
    shift = shift_parameter(EARTH, GROUND, LINKS[0][1])
    packet = SOURCES[0][1]
    k = 1.0 + shift.delta
    received = GaussianPacket(k * packet.peak_hz, k * packet.width_hz)
    closed = overlap_gaussian_closed(packet, shift)
    quad = overlap_quadrature(packet, received)
    print("quadrature cross-check (ISS link, SPDC source)")
    print(f"  closed      |Delta| = {abs(closed.delta):.15f}")
    print(f"  quadrature  |Delta| = {abs(quad.delta):.15f}  (abserr {quad.abserr:.1e})")
    print(f"  difference          = {abs(abs(closed.delta) - abs(quad.delta)):.2e}")
    print()

    # while the shifted peak stays within a width, the mismatch follows
    # q ~ (delta peak / 2 width)^2, so the peak-to-width ratio of the
    # source sets the whole effect
    print("small-shift law (SPDC source, peak/width = 7e8)")
    for d in np.logspace(-12, -10, 5):
        q = mismatch_q(overlap_gaussian_closed(packet, ShiftParameter(d, Sign.UP)).delta)
        pred = (d * packet.peak_hz / (2.0 * packet.width_hz)) ** 2
        print(f"  delta = {d:.2e}   q = {q:.4e}   (delta peak / 2 width)^2 = {pred:.4e}")


if __name__ == "__main__":
    main()
