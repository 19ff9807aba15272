"""Deterministic scenario generator used as the ground-truth oracle.

Pseudo-ranges are built directly from the forward model: geometry plus rover
clock, minus the node bias, plus an optional non-line-of-sight offset and
Gaussian noise whose sigma follows the received-power model (or a constant).
Received power comes from a log-distance path loss. The noise stream is keyed
by (seed, node index, epoch index), so output is byte-stable regardless of
generation order: each row's draw is ``default_rng([seed, node,
epoch]).standard_normal()``. `noise_draws` computes a whole session's first
PCG64 outputs in array passes and applies NumPy's ziggurat fast path to them;
NumPy's generator draws the rows that path rejects. A test pins every draw
against the per-row generator.

`generate` builds a session in array passes over the epoch x node grid, in
the per-row forward model's order of operations, so every value is the one a
loop over rows gives. The path loss's log is math.log10 per element, because
np.log10 is not the C library's function and may round differently.

An optional quantization step rounds pseudo-ranges to a fixed grid, mimicking
receiver timestamp granularity; with a grid-aligned clock model this makes
rover-clock cancellation bit-exact instead of merely exact-to-rounding.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .dtb import DtbEntry, DtbTable
from .errors import InvalidScenario
from .geometry import NodeCatalog, Position
from .ingestion import ReferenceTrajectory, Session, group_epochs
from .noise import NoiseModel, sigma_for
from .table import finite_float

# NumPy's SeedSequence hash and mix constants, PCG64's LCG multiplier M, and M**2 + M + 1.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG_STEP, _LOW, _32 = (_PCG_MULT**2 + _PCG_MULT + 1) & _MASK128, np.uint64(_MASK32), np.uint64(32)

# NumPy's wi_double (numpy/random/src/distributions/ziggurat_constants.h), float64 in base 85, and
# layer i's bound floor(wi[i-1] / wi[i] * 2**52) - 2 (0 for layer 1), 0-3 below numpy's ki_double.
_WI = np.frombuffer(base64.b85decode("".join("""dD#_sJ4w$x#`gW=3yq6Bv|B7ZuTYXaVLL=PxqOv845u&X`~jFey
wFT83?rI6_hC3MO#qxcbaHfBFRYzB!_`bJNHU*1t-FpVGEJa7LtO$p1@)jjcQ!$nrjnsN^%{DQq9>v}fY@U=F14aO^^sS=KRly6
FR`M*p1q?yRh$2f?>VGAr~W-QyRoD^bkiDQbtR=dmd*#KfR&{@>VDbJF#@JMJ$$2K(rczXa0LL8qSB^3ruatF+BT;=cPg_Gt(d1
gL-j_jMfj&YcM3yO%vGp7ns$4hWU;6`n9okBE(@tV>K-hDM`NixM#VUe$+@XKET^R0%nqtNS<QECXJV>6FcuJQt+c8<oNN<qu?4
F<DSASOgjK6NI-gRGHl(XOGJ?M<*72)6^G;d$a6YU&VLLLV6N;=nizagZ$<(YoNVk9vpB}9|5Fg|zooB5)!?+^=&abUJQ+DyGI`
^$S{_WDW>piYK0B?FT>4UC3&Vu>9I?1j)CSve}=MAqsi1yf2_EE1quGfd2ZI!P)tS<U}Q`oOO>@-5)Rt>N`nvXg4KrXO6{G}G2>
Q1mc5TJ5fR&TI83-oc2hL5m36JflBeXp=Qf6Pl}J<qT_YX}xg$nLN_?iH0XAP%uSz7H`6M=h~DL6MH1K1{JZ9w5ZO2y3xCG}?F?
r-`vVh;8ms8>q27%PRQzX2!8RF4W+Yi{!C9pP)dQiUP7c>BhuzWgxOVAH(T=9X_%=`)jETv|F+~f72aiDtWRz8`l}fftIp7+Ag?
ayR))9Q@G(`*wC^(j;YJ&+3m7C*GO&+!3wiHFuC;MjwiD`p<X6%L`1VZ)l$m3;$X8pYFGunYJIajWU{hv-I=pI13kFEJGQet;2l
<&hSIY<gIaRlzV5R;be`aG<qEVsU38```zEwJq%b__07JAqUB}9E_g=I-Hp6C~-+Ht>FONtvx|Xy&T|ol&hqAOh+!3>^NzSx91*
SL_0P3_nVpU%6s|B?@T8j$uO(C^BPiAV><~+4L$g&$wcUZMNcwbcx0CcrH6on4PfseI3SsNrH{i?M*J#&50a>lhh(~K{B<KeYDI
9{K~PyMw#!yltyxEQuPqOhXq9W=H)3nsS&flszPa+b+g;%c@$H!-n;LWZ_Hv9eGpqM^1tyF;_+0ll_7Qqw45V%WAkRQO>r#Pha1
>u8JjCl9wg#uRB$jw-i2-0pDP_eHlnA9Lk3Wns5GN%Zgf)_k`-lfAmgO_;Yl2^5Pw%ComT`y$)(OwYGG=iYOS*6O!BAL@prX9l=
Dc818>03x_N6`zUDqCL1gz4g%_PFc7-#eRBk19iAOE%!%X!;rW<L%;=+j;y#moD89>WyrWZCu&4dN#wXZkF|3tIsmymM}sKbI2^
e={0i?9MmV`VilPH~VpO?2?$vO+j&Qj=F)A*J%Z#}^znMRi8L7EEEZNnJdBwRr5p-`W?BTgQO49l!a{jqIk~aA{3>&&UTgajzyE
nQ#h`S4(e^k0Wq^U}BT5-BOJu#qUOpdxd2=SjjR;#)^&h=W&c*wduHnWT2wB@=y8ll5a3j@16TbP>gd?33#01V)u3O>6$13k_`w
OhM9Cy76~eR;b)Jon}CWS6@<ZY71=Yqh&PqQEX|lheCAgRX&_-0{0Spcd?GND#a{Eqd_f*Dky~91U(0j7_{e1&8biW^BAX7pCjr
W{bQ$tD-i&kE*;pkk&iL;mN!_H{fV6Ug^9%ZjXyH1_`}9An!L2+bF#}N5(T1-blSXBk|{!5NW+UrTf?PbBVn?aBd)(397w34oUp
@(#pL&H!f0@(d)fD9MVbq1`WPE_D1T&bS}O;h|$5B98kVICH|K$0CK)O3co5#A(Xy62ygemfwsOpI;RkJBiX(@sq6t^2>iZ0Ayd
MNG9SM@ZB4fiq(Z+uXaUI}UuM5Nf|rQ|W{ST&zanuMyRN@Hh37BQVAH=m3-%bnS@^#^b)eHn)DFNrN6C)@s3E{Ss{*NmsWiYm$M
rr=+DE`VezUFiJ6pg!XeOs4&~Csy7cOIun1aAORHEnzmzKah#K3WN&8omWNYw7pJ-@&_Fg>a?>eIkHlVuUl)abxGwx6c&|NX!`L
2w`hZWF;gHC?-#At}K;Z3)C_9Y4W5J1$^IWL3dD^X{EH`D?*EVG`1G--5wBtm{rz8k)g8jxT?At+By8l%{d1oXNpFIj-dU>*2vX
0omfhpZdW(fy@M*yc5Da?$d92M=ioUB%G|IMMuIs;8=FYykWvTE?KDhvV6ikcn){XE||hRQVJ?lH?+b$m)n*x)X>5_^?0eV4er7
`?ygqS><hy@qoinFdn&^`qY|zK#7V<EK&Uf%(rLpy3PDzqvx>t!`iQP@b*#fYrUVzWC(pw?b@X7W+w#La+U2>Nq!+|IlwMR7m_5
Wi6*{Lx&Sb<qyhEIIVvWQ+Ct7QrbGO7i0*TEHCF8_AL9FRhpAf}7LVh|@5kSQ}8{|r<v2n#b*^P0Fz@^1J{?IxkirmFKOdf{MX%
@yj>S_Rc&Qr!b!{wj8K$XTkGU5r1Yum;=G<sj~C@04}a|Q`km3hZJjLz2dE!4+6H1a7013Ab%6nv_`539&LmPBuq;4aBLt5-k)?
#szMT6dIq+>gpUvHf^BADGKLGpz}Nv^&i_""".split())), dtype="<f8")
_KI = np.where(np.arange(256) == 1, 0.0, np.floor(np.roll(_WI, 1) / _WI * 2.0**52) - 2)


@dataclass(frozen=True)
class ClockModel:
    """Rover clock bias in meters as a function of session time.

    kinds: "zero"; "constant" (fixed offset); "sawtooth" (linear drift with
    periodic jumps of reset_magnitude, visible simultaneously on all nodes).
    """

    kind: str = "zero"
    value: float = 0.0            # constant offset, m
    drift_rate: float = 0.0       # m/s
    reset_period: float = 0.0     # s
    reset_magnitude: float = 0.0  # m, subtracted at each reset

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "sawtooth"):
            raise InvalidScenario(f"unknown clock kind {self.kind!r}")
        if self.kind == "sawtooth" and not self.reset_period > 0:
            raise InvalidScenario("sawtooth clock needs reset_period > 0")

    def bias_at(self, t: np.ndarray) -> np.ndarray:
        """The bias at each time of an array; a reset count past the float
        range makes it non-finite."""
        if self.kind == "sawtooth":
            return self.drift_rate * t - self.reset_magnitude * np.floor(t / self.reset_period)
        return np.full_like(t, self.value if self.kind == "constant" else 0.0)


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance received power: p0 dBm at 1 m, decaying with exponent gamma."""

    p0: float = -40.0
    gamma: float = 2.5
    min_range: float = 0.1  # m, guards the log at zero range

    def __post_init__(self):
        if not self.min_range > 0:
            raise InvalidScenario("path_loss min_range must be positive")

    def rsrp(self, rho: np.ndarray) -> np.ndarray:
        """The power at each range of an array, through math.log10."""
        logs = map(math.log10, np.maximum(rho, self.min_range).ravel().tolist())
        return self.p0 - 10.0 * self.gamma * np.reshape(list(logs), np.shape(rho))


@dataclass
class Scenario:
    catalog: NodeCatalog
    node_biases: dict[str, float] = field(default_factory=dict)    # b^n, m
    rover_clock: ClockModel = field(default_factory=ClockModel)
    waypoints: list[tuple[float, float]] = field(default_factory=list)
    speed: float = 1.0            # m/s along the waypoint polyline
    epoch_rate: float = 1.0       # Hz
    noise: NoiseModel | float = 0.0   # model, or constant per-ToA sigma in m
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    nlos_offset: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    duration: float | None = None     # s; default: time to traverse the polyline
    quantize: float | None = None     # m; round pseudo-ranges to this grid

    def __post_init__(self):
        # written as not (x > 0) or not (x >= 0), so that NaN fails too
        if not self.epoch_rate > 0:
            raise InvalidScenario("epoch_rate must be positive")
        if not self.speed >= 0:
            raise InvalidScenario("speed must be non-negative")
        if not self.waypoints:
            raise InvalidScenario("scenario needs at least one waypoint")
        for mapping, what in ((self.node_biases, "bias"), (self.nlos_offset, "nlos")):
            for node_id in mapping:
                if node_id not in self.catalog:
                    raise InvalidScenario(f"{what} for unknown node {node_id!r}")
        if isinstance(self.noise, (int, float)) and not self.noise >= 0:
            raise InvalidScenario("constant noise sigma must be non-negative")
        if self.duration is None and self.speed == 0 and len(self.waypoints) > 1:
            raise InvalidScenario("zero speed needs an explicit duration")
        if self.quantize is not None and not self.quantize > 0:
            raise InvalidScenario("quantize grid must be positive")
        if type(self.seed) is not int:   # int() would truncate a float or bool, or parse a string
            raise InvalidScenario(f"seed must be an integer, got {self.seed!r}")


def _path_samples(waypoints: list[tuple[float, float]]) -> list[tuple[float, Position]]:
    """(distance travelled, position) at the waypoints of the rover's polyline,
    without zero-length segments: of repeated waypoints only the first is kept."""
    pts = [(float(x), float(y)) for x, y in waypoints]
    lengths = [math.sqrt(dx * dx + dy * dy)
               for dx, dy in ((x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:]))]
    samples = [(0.0, Position(*pts[0]))]
    for dist, point, length in zip(itertools.accumulate(lengths), pts[1:], lengths):
        if length > 0:
            samples.append((dist, Position(*point)))
    if samples[-1][0] == math.inf:   # a step overflows, and so every distance after it
        raise InvalidScenario("waypoint path length is past the float range")
    return samples


@dataclass
class SyntheticSession:
    toa: Session
    catalog: NodeCatalog
    trajectory: ReferenceTrajectory
    scenario: Scenario


def truth_dtb(scenario: Scenario, ref_node_id: str) -> DtbTable:
    """Analytic DTB table for any reference: bias differences plus NLOS differences."""
    if ref_node_id not in scenario.catalog:
        raise InvalidScenario(f"reference {ref_node_id!r} not in catalog")
    nlos = scenario.nlos_offset
    b_ref = scenario.node_biases.get(ref_node_id, 0.0) - nlos.get(ref_node_id, 0.0)
    entries = {}
    for node_id in scenario.catalog.ids():
        if node_id == ref_node_id:
            continue
        b_n = scenario.node_biases.get(node_id, 0.0) - nlos.get(node_id, 0.0)
        mean = -b_n + b_ref
        if not math.isfinite(mean):
            raise InvalidScenario(f"non-finite truth DTB {mean} of node {node_id!r}")
        entries[node_id] = DtbEntry(mean=mean, std=0.0, n_samples=1)
    return DtbTable(ref_node_id, entries, "truth")


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over a uint32 column, advancing its running constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return value ^ value >> 16


def _first_outputs(words: list[np.ndarray]) -> np.ndarray:
    """Each row's first PCG64 output from its SeedSequence words (uint64 arrays, in hash order):
    rotr64(hi ^ lo, hi >> 58) of the state s * M**2 + (2i + 1) * (M**2 + M + 1) mod 2**128 that
    seeding with (s, i) and one step leave, summed in 32-bit limb columns, the lowest first."""
    cols = [np.uint64(_PCG_STEP >> shift & _MASK32) for shift in range(0, 160, 32)]   # 5th: carry
    for order, mult in (((2, 3, 0, 1), _PCG_MULT**2), ((6, 7, 4, 5), 2 * _PCG_STEP)):   # s, i
        for k, j in ((k, j) for k in range(4) for j in range(4 - k)):   # products < 2**64
            product = words[order[k]] * np.uint64(mult >> 32 * j & _MASK32)
            cols[k + j] += product & _LOW
            cols[k + j + 1] += product >> _32
    for k in range(3):
        cols[k + 1] += cols[k] >> _32
    hi, lo = cols[2] & _LOW | cols[3] << _32, cols[0] & _LOW | cols[1] << _32
    rot, word = hi >> np.uint64(58), hi ^ lo
    return word >> rot | word << (np.uint64(64) - rot & np.uint64(63))


def noise_draws(seed: int, n_nodes: int, n_epochs: int) -> list[float]:
    """Row k * n_nodes + node is np.random.default_rng([seed, node, k]).standard_normal(), bit for
    bit. SeedSequence hashes the key words (the seed's 32-bit words, node, k) of all rows at once;
    numpy's ziggurat fast path on each row's first output u gives +-rabs * wi[u & 0xff], with rabs
    = u >> 9 & (2**52 - 1), and numpy's generator, set to their seed, draws the rows it rejects."""
    size = n_nodes * n_epochs
    key = [np.full(size, seed >> shift & _MASK32, dtype=np.uint32)
           for shift in range(0, max(seed.bit_length(), 1), 32)]
    key += [np.tile(np.arange(n_nodes, dtype=np.uint32), n_epochs),
            np.repeat(np.arange(n_epochs, dtype=np.uint32), n_nodes)]
    key += [np.zeros(size, dtype=np.uint32)] * (4 - len(key))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in key[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(key[4:], range(4)):   # key words past the pool
        pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    u = _first_outputs(words)
    layer = (u & np.uint64(0xFF)).astype(np.intp)
    rabs = (u >> np.uint64(9) & np.uint64(2**52 - 1)).astype(np.float64)
    draws = np.where(u & np.uint64(0x100), -rabs, rabs) * _WI[layer]
    rows = np.flatnonzero(rabs >= _KI[layer])
    state_hi, state_lo, inc_hi, inc_lo = ((words[i] | words[i + 1] << _32)[rows].tolist()
                                          for i in range(0, 8, 2))
    generator = np.random.Generator(np.random.PCG64())
    full_state = generator.bit_generator.state
    pcg = full_state["state"]
    for row, s_hi, s_lo, i_hi, i_lo in zip(rows.tolist(), state_hi, state_lo, inc_hi, inc_lo):
        pcg["inc"] = inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128   # pcg_setseq_128_srandom_r
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        generator.bit_generator.state = full_state
        draws[row] = generator.standard_normal()
    return draws.tolist()


def generate(scenario: Scenario) -> SyntheticSession:
    """Generate a full session: one ToA epoch per time step, plus the exact trajectory."""
    samples = _path_samples(scenario.waypoints)
    total = samples[-1][0]
    path = ReferenceTrajectory(samples) if len(samples) > 1 else None   # None: no length
    duration = scenario.duration
    if duration is None:
        duration = total / scenario.speed if scenario.speed > 0 else 1.0
    span = duration * scenario.epoch_rate   # epoch steps after the first
    if not span >= 1:
        raise InvalidScenario("scenario spans fewer than 2 epochs")
    if not span < 2**32 - 1:   # inf too; the epoch index is one 32-bit word of the noise key
        raise InvalidScenario("scenario spans 2**32 epochs or more, past a 32-bit epoch index")
    n_epochs = math.floor(span) + 1
    if scenario.seed < 0:   # checked here: simulate --seed replaces the scenario's seed
        raise InvalidScenario(f"seed must be non-negative, got {scenario.seed}")

    node_ids = scenario.catalog.ids()
    epoch_times = np.arange(n_epochs) / scenario.epoch_rate
    times = epoch_times.tolist()
    rovers = ([path.interpolate(min(max(scenario.speed * t, 0.0), total)) for t in times]
              if path else [samples[0][1]] * n_epochs)
    trajectory = ReferenceTrajectory(list(zip(times, rovers)))
    nodes = np.array([(p.x, p.y, p.z) for _, p in scenario.catalog.items()])
    noise, grid = scenario.noise, scenario.quantize
    # epoch x node arrays; an overflow leaves a non-finite value, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.array(trajectory.xyz)[:, None, :] - nodes
        d = d * d
        rho = np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])
        rsrp = scenario.path_loss.rsrp(rho)
        if isinstance(noise, NoiseModel):
            sigma = np.reshape([sigma_for(noise, r) for r in rsrp.ravel().tolist()], rho.shape)
        else:
            sigma = float(noise)
        # a constant sigma of 0 uses no draw, so none is made
        draws = (np.reshape(noise_draws(scenario.seed, len(node_ids), n_epochs), rho.shape)
                 if np.any(sigma > 0) else 0.0)
        toa = (rho - [scenario.node_biases.get(node_id, 0.0) for node_id in node_ids]
               + [scenario.nlos_offset.get(node_id, 0.0) for node_id in node_ids]
               + np.where(sigma > 0, sigma * draws, 0.0))
        too_fine = np.zeros(rho.shape, dtype=bool)
        quantized = toa
        if grid is not None:
            steps = toa / grid
            too_fine = np.isfinite(toa) & np.isinf(steps)
            # + 0.0: rint gives -0.0 where round() gives the int 0, which is +0.0
            quantized = (np.rint(steps) + 0.0) * grid
        pseudorange = quantized + scenario.rover_clock.bias_at(epoch_times)[:, None]
        bad = too_fine | ~(np.isfinite(pseudorange) & np.isfinite(rsrp))
    if bad.any():   # the first bad row, in row order
        k, i = divmod(int(bad.argmax()), len(node_ids))
        if too_fine[k, i]:
            raise InvalidScenario(f"quantize grid {grid} is too fine for "
                                  f"pseudorange {toa[k, i].item()}")
        raise InvalidScenario(f"non-finite pseudorange {pseudorange[k, i].item()} or rsrp "
                              f"{rsrp[k, i].item()} of node {node_ids[i]!r} at t={times[k]}")
    session = group_epochs(np.repeat(epoch_times, len(node_ids)).tolist(), node_ids * n_epochs,
                           pseudorange.ravel().tolist(), rsrp.ravel().tolist(), epoch_tol=0.0)
    return SyntheticSession(session, scenario.catalog, trajectory, scenario)


def _floats(mapping) -> dict[str, float]:
    return {str(key): finite_float(value) for key, value in mapping.items()}


def load_scenario(path) -> Scenario:
    """Build a scenario from its YAML description (see README for the schema)."""
    with open(path, "rb") as f:   # yaml decodes, so a byte that is not text is a YAMLError
        data = f.read()
    try:
        raw = yaml.safe_load(data)
    except yaml.YAMLError as exc:   # one line: the problem, at the line the parser marks
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        line = mark and mark.line + 1
        if isinstance(exc, yaml.reader.ReaderError):   # no mark: its position's line, in
            # bytes for a byte that is not UTF-8, else in the decoded characters
            text = data if exc.encoding == "utf-8" else data.decode(errors="replace")
            line = text[:exc.position].count(b"\n" if text is data else "\n") + 1
        where = f"{path}:{line}" if line else path
        raise InvalidScenario(f"{where}: {problem or str(exc).splitlines()[0]}") from None
    if not isinstance(raw, dict):
        raise InvalidScenario(f"{path}: scenario file must be a mapping")
    try:
        nodes = {
            str(node_id): Position(*map(finite_float, coords))
            for node_id, coords in raw["nodes"].items()
        }
        catalog = NodeCatalog(nodes)
        clock_raw = dict(raw.get("clock", {"kind": "zero"}))
        clock = ClockModel(clock_raw.pop("kind", "zero"), **_floats(clock_raw))
        noise_raw = raw.get("noise", 0.0)
        if isinstance(noise_raw, dict):
            if "sigma" in noise_raw:
                noise = finite_float(noise_raw["sigma"])
            else:
                noise = NoiseModel(**_floats(noise_raw))
        else:
            noise = finite_float(noise_raw)
        return Scenario(
            catalog=catalog,
            node_biases=_floats(raw.get("biases", {})),
            rover_clock=clock,
            waypoints=[(finite_float(x), finite_float(y)) for x, y in raw["waypoints"]],
            speed=finite_float(raw.get("speed", 1.0)),
            epoch_rate=finite_float(raw.get("epoch_rate", 1.0)),
            noise=noise,
            path_loss=PathLossModel(**_floats(raw.get("path_loss", {}))),
            nlos_offset=_floats(raw.get("nlos") or {}),
            seed=raw.get("seed", 0),
            duration=finite_float(raw["duration"]) if raw.get("duration") is not None else None,
            quantize=finite_float(raw["quantize"]) if raw.get("quantize") is not None else None,
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"{path}: {exc}") from None
