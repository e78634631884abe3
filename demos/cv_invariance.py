"""Homodyne statistics ignore curvature when signal and LO share a source."""

from gravlink import (
    Body,
    GaussianPacket,
    HomodynePrep,
    Observer,
    curvature_invariance_report,
)

EARTH = Body(mass=5.972e24, radius=6_371_000.0)
GROUND = Observer(radius=6_371_000.0)

SCENARIOS = [
    ("flat space", Body(mass=0.0, radius=1.0), Observer(1.0), Observer(2.0)),
    ("ground -> ISS", EARTH, GROUND, Observer(6_771_000.0, "orbit")),
    ("ground -> far field", EARTH, GROUND, Observer(float("inf"))),
]


def main():
    prep = HomodynePrep(alpha=0.5, beta=90.0)
    packet = GaussianPacket(peak_hz=700e12, width_hz=1e6)
    triples = [(body, em, rec) for _, body, em, rec in SCENARIOS]

    print("shared source: both beams pick up the same rescaling")
    rows = curvature_invariance_report(prep, triples, packet=packet)
    for (label, *_), row in zip(SCENARIOS, rows):
        print(f"  {label:20s} chi = {row['chi']:.12f}  overlap = {row['overlap']:.12f}  "
              f"x = {row['x']:.1f}  v = {row['v']:.1f}  pass = {row['pass']}")
    xs = {(row["x"], row["v"]) for row in rows}
    print(f"  distinct (x, v) pairs across scenarios: {len(xs)}")
    print()

    print("independent LO (peak detuned by one linewidth): mismatch is visible again")
    lo = GaussianPacket(peak_hz=700e12 + 1e6, width_hz=1e6)
    rows = curvature_invariance_report(prep, triples, packet=packet, lo_packet=lo)
    for (label, *_), row in zip(SCENARIOS, rows):
        print(f"  {label:20s} overlap = {row['overlap']:.6f}  pass = {row['pass']}  "
              f"x = {row['x']}  v = {row['v']}")


if __name__ == "__main__":
    main()
