"""Shift budget for an Earth ground station talking to orbit and to infinity."""

from gravlink import (
    C,
    Body,
    Observer,
    coordinate_travel_time,
    radius_after,
    redshift_total,
    shift_parameter,
)

EARTH = Body(mass=5.972e24, radius=6_371_000.0)
GROUND = Observer(radius=6_371_000.0)
ISS = Observer(radius=6_771_000.0, motion="orbit")
FAR = Observer(radius=float("inf"))


def main():
    rs = EARTH.schwarzschild_radius
    print(f"Earth Schwarzschild radius: {rs * 1e3:.4f} mm")
    print(f"metric factor at ground:    1 - {rs / GROUND.radius:.4e}")
    print()

    for label, receiver in [("ground -> ISS (400 km orbit)", ISS), ("ground -> far field", FAR)]:
        shift = shift_parameter(EARTH, GROUND, receiver)
        ratio = redshift_total(EARTH, GROUND, receiver)
        kind = "redshift" if shift.sign.value == "up" else "blueshift"
        print(label)
        print(f"  frequency ratio   {ratio:.15f}")
        print(f"  delta             {shift.delta:.6e}  ({kind})")
        print()

    # an orbiting clock at r_B = 1.5 r_A ticks at exactly the ground rate,
    # so the ISS (below that altitude) comes out blueshifted while higher
    # orbits would be redshifted
    r_cross = 1.5 * GROUND.radius
    print(f"zero-shift orbital radius: {r_cross / 1e3:.0f} km "
          f"(altitude {(r_cross - GROUND.radius) / 1e3:.0f} km)")
    for r in (6_771_000.0, r_cross, 2.0 * GROUND.radius):
        d = shift_parameter(EARTH, GROUND, Observer(r, "orbit"))
        print(f"  orbit at {r / 1e3:9.1f} km: delta = {d.delta:.3e} {d.sign.value}")
    print()

    t = coordinate_travel_time(EARTH, GROUND.radius, ISS.radius)
    t_flat = (ISS.radius - GROUND.radius) / C
    print(f"radial light travel ground -> ISS: {t * 1e3:.6f} ms")
    print(f"flat-space time for the same 400 km: {t_flat * 1e3:.6f} ms")
    print(f"curvature excess: {t - t_flat:.3e} s")

    r_up = radius_after(EARTH, GROUND.radius, t)
    print(f"propagating the ray for that time recovers the ISS radius to "
          f"{abs(r_up - ISS.radius):.2e} m")


if __name__ == "__main__":
    main()
