"""Seeded `.rsc` model generators and the closed forms used as oracles.

Every generator takes a `random.Random`, so one benchmark seed fixes every
model a run sends. Structure (block types, quantities, diagram tree) is
fixed per generator; only rates and durations are drawn, so the chains a
workload builds keep one size while no two models share a cache key.
"""

import math

MISSION_H = 8760
WEB_SHOP_BLOCKS = 6
WEB_SHOP_STATES = 26
DEEP_QUANTITY = 48


def _j(rng, value, spread=0.3):
    """`value` scaled by a factor drawn from [1 - spread, 1 + spread]."""
    return f"{value * rng.uniform(1.0 - spread, 1.0 + spread):.9g}"


def web_shop(rng, shops=1):
    """The three-tier web shop of the examples, every rate redrawn: six
    blocks over three diagrams covering Type 0, Type 1/3 redundancy,
    latent faults and a primary/standby pair (26 chain states). With
    `shops` > 1, that many independently drawn shops in series under one
    root diagram."""
    head = f"""title = "Web Shop"
globals {{
  reboot_time = {_j(rng, 6)} min
  mttm = {_j(rng, 24)} h
  mttrfid = {_j(rng, 4)} h
  mission_time = {MISSION_H} h
}}
"""
    if shops == 1:
        return head + _shop(rng, "")
    root = "".join(f'  block "Shop {k}" {{ subdiagram = "Web Shop {k}" }}\n'
                   for k in range(shops))
    return (head + f'diagram "Shops" {{\n{root}}}\n' +
            "".join(_shop(rng, f" {k}") for k in range(shops)))


def _shop(rng, suffix):
    return f"""diagram "Web Shop{suffix}" {{
  block "Load Balancer Pair" {{
    quantity = 2  min_quantity = 1
    mtbf = {_j(rng, 120000)} h
    mttr_corrective = {_j(rng, 45)} min  service_response = {_j(rng, 4)} h
    recovery = transparent  repair = transparent
  }}
  block "App Server" {{ subdiagram = "App Server{suffix}" }}
  block "Database" {{ subdiagram = "Database{suffix}" }}
}}
diagram "App Server{suffix}" {{
  block "Chassis" {{
    mtbf = {_j(rng, 400000)} h
    mttr_corrective = {_j(rng, 60)} min  service_response = {_j(rng, 4)} h
  }}
  block "CPU" {{
    quantity = 4  min_quantity = 3
    mtbf = {_j(rng, 500000)} h  transient_rate = {_j(rng, 2000)} fit
    mttr_corrective = {_j(rng, 30)} min  service_response = {_j(rng, 4)} h
    recovery = nontransparent  ar_time = {_j(rng, 5)} min
    repair = transparent
  }}
  block "Application Software" {{ transient_rate = {_j(rng, 30000)} fit }}
}}
diagram "Database{suffix}" {{
  block "DB Node Pair" {{
    quantity = 2  min_quantity = 1
    mtbf = {_j(rng, 40000)} h  transient_rate = {_j(rng, 20000)} fit
    mttr_corrective = {_j(rng, 90)} min  service_response = {_j(rng, 4)} h
    mode = primary_standby
    failover_time = {_j(rng, 2)} min  p_failover = 0.99  t_spf = {_j(rng, 30)} min
    repair = transparent
  }}
  block "Storage Array, RAID5" {{
    quantity = 8  min_quantity = 7
    mtbf = {_j(rng, 250000)} h
    mttr_corrective = {_j(rng, 30)} min  service_response = {_j(rng, 4)} h
    recovery = transparent  repair = transparent
    p_latent_fault = 0.03  mttdlf = {_j(rng, 24)} h
  }}
}}
"""


DEEP_DIAGRAM = "Storage"
DEEP_BLOCK = "Disk Shelf"


def deep(rng, mtbf_h):
    """A Type 4 block of DEEP_QUANTITY components with MTBF `mtbf_h`, one of
    which must work, in series with a controller. The redundancy depth
    makes a long level-structured chain (336 states), and every fault path
    (transients, latent faults, SPF, imperfect diagnosis, nontransparent
    recovery and repair) is switched on."""
    return f"""title = "Deep Storage"
globals {{
  reboot_time = {_j(rng, 6)} min
  mttm = {_j(rng, 24)} h
  mttrfid = {_j(rng, 4)} h
  mission_time = {MISSION_H} h
}}
diagram "{DEEP_DIAGRAM}" {{
  block "{DEEP_BLOCK}" {{
    quantity = {DEEP_QUANTITY}  min_quantity = 1
    mtbf = {mtbf_h!r} h  transient_rate = {_j(rng, 2000)} fit
    mttr_corrective = {_j(rng, 45)} min  service_response = {_j(rng, 4)} h
    p_correct_diagnosis = 0.95
    p_latent_fault = 0.05  mttdlf = {_j(rng, 48)} h
    recovery = nontransparent  ar_time = {_j(rng, 6)} min
    p_spf = 0.01  t_spf = {_j(rng, 30)} min
    repair = nontransparent  reintegration_time = {_j(rng, 8)} min
  }}
  block "Controller" {{
    mtbf = {_j(rng, 300000)} h
    mttr_corrective = {_j(rng, 60)} min  service_response = {_j(rng, 4)} h
  }}
}}
"""


def series_type0(rng):
    """Four blocks with no redundancy and only permanent faults, in series.

    Returns (model text, steady availability, reliability at mission time)
    from closed forms: each block is a two-state unit with up time
    MTBF/N and down time Tresp + MTTR, so A = prod MTBF_i/N_i /
    (MTBF_i/N_i + Tresp_i + MTTR_i); the first failure anywhere fails the
    system, so R(T) = exp(-T * sum N_i / MTBF_i).
    """
    lines = [f'globals {{ mission_time = {MISSION_H} h }}',
             'diagram "Rack" {']
    availability = 1.0
    rate = 0.0
    for i in range(4):
        n = rng.randint(1, 4)
        mtbf = float(_j(rng, 200000.0, 0.5))
        mttr_min = float(_j(rng, 60.0, 0.5))
        resp_h = float(_j(rng, 4.0, 0.5))
        lines.append(f'  block "Unit {i}" {{ quantity = {n}  min_quantity = {n}'
                     f'  mtbf = {mtbf!r} h  mttr_corrective = {mttr_min!r} min'
                     f'  service_response = {resp_h!r} h }}')
        up = mtbf / n
        availability *= up / (up + resp_h + mttr_min / 60.0)
        rate += n / mtbf
    lines.append("}")
    return "\n".join(lines) + "\n", availability, math.exp(-MISSION_H * rate)
