"""Synthetic DMV data with the skew and correlations the paper relies on.

The paper's evaluation (Sec 5) depends on four data properties, each of
which is deliberately engineered here and documented where it is produced:

1. **Skewed value distributions** — country and make frequencies are
   Zipf-like, so the optimizer's uniformity assumption (1/ndv for equality
   predicates) is wrong by large factors in both directions.
2. **Cross-column correlation within a table** — ``model`` determines
   ``make`` (Example 2: Mazda/323), and ``city`` determines ``country``
   (Example 3: Augusta/US), so the independence assumption underestimates
   conjunctions by an order of magnitude.
3. **Cross-table correlation through joins** — an owner's (latent) wealth
   drives both the class of car they buy and their Demographics salary, so
   ``salary`` predicates are far more/less selective for luxury/standard
   cars than any single-table statistic can reveal.
4. **The Example 1 flip** — Chevrolets are mostly US-owned by
   modest-income owners while Mercedes are disproportionately German-owned
   by high earners. For ``make IN ('Chevrolet','Mercedes')`` scanned in key
   order (Chevrolet first), the best inner order of Owner vs Demographics
   *changes mid-query*, which only run-time reordering can exploit.

Everything is deterministic given (scale, seed). ``scale=1.0`` matches the
paper's 100K owners with Car/Accidents cardinalities near Table 1's ratios
(111,676 and 279,125).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from repro.catalog.statistics import StatisticsLevel
from repro.db import Database
from repro.dmv.schema import create_dmv_schema
from repro.optimizer.plancache import DEFAULT_CAPACITY

PAPER_OWNER_COUNT = 100_000
SECOND_CAR_PROBABILITY = 0.11676     # Table 1: 111,676 cars / 100,000 owners
MEAN_ACCIDENTS_PER_CAR = 2.4993      # Table 1: 279,125 / 111,676

# (country1, country3, weight, cities). Weights are Zipf-ish: 'United
# States' dominates, tail countries are rare — the paper's Example 3 notes
# almost one third of Owner matches country3 = 'US'.
COUNTRIES: list[tuple[str, str, int, list[str]]] = [
    ("United States", "US", 30, ["Augusta", "Springfield", "Portland", "Columbus", "Austin", "Phoenix"]),
    ("Germany", "DE", 14, ["Berlin", "Munich", "Hamburg", "Cologne", "Frankfurt"]),
    ("France", "FR", 9, ["Paris", "Lyon", "Marseille", "Toulouse"]),
    ("United Kingdom", "GB", 8, ["London", "Manchester", "Leeds", "Bristol"]),
    ("Japan", "JP", 7, ["Tokyo", "Osaka", "Nagoya", "Sapporo"]),
    ("Italy", "IT", 6, ["Rome", "Milan", "Naples", "Turin"]),
    ("Canada", "CA", 5, ["Toronto", "Montreal", "Calgary"]),
    ("Spain", "ES", 4, ["Madrid", "Barcelona", "Valencia"]),
    ("Brazil", "BR", 4, ["Sao Paulo", "Rio de Janeiro", "Salvador"]),
    ("Australia", "AU", 3, ["Sydney", "Melbourne", "Perth"]),
    ("Mexico", "MX", 3, ["Mexico City", "Guadalajara"]),
    ("Netherlands", "NL", 2, ["Amsterdam", "Rotterdam"]),
    ("Egypt", "EG", 2, ["Cairo", "Alexandria", "Giza"]),
    ("Sweden", "SE", 1, ["Stockholm", "Gothenburg"]),
    ("Poland", "PL", 1, ["Warsaw", "Krakow"]),
]

# (make, luxury?, weight, models). Models are unique to their make, so a
# model equality predicate implies the make (the Example 2 correlation).
MAKES: list[tuple[str, bool, int, list[str]]] = [
    ("Chevrolet", False, 13, ["Caprice", "Malibu", "Impala", "Cavalier"]),
    ("Ford", False, 12, ["F150", "Focus", "Taurus", "Escort"]),
    ("Toyota", False, 11, ["Corolla", "Camry", "RAV4", "Yaris"]),
    ("Honda", False, 9, ["Civic", "Accord", "CRV"]),
    ("Mazda", False, 7, ["323", "626", "Miata", "Protege"]),
    ("Nissan", False, 6, ["Sentra", "Altima", "Maxima"]),
    ("Volkswagen", False, 6, ["Golf", "Jetta", "Passat", "Beetle"]),
    ("Hyundai", False, 5, ["Elantra", "Sonata", "Accent"]),
    ("Subaru", False, 4, ["Outback", "Impreza", "Forester"]),
    ("Kia", False, 3, ["Sephia", "Sportage"]),
    ("Fiat", False, 3, ["Punto", "Panda", "Uno"]),
    ("Peugeot", False, 3, ["206", "306", "406"]),
    ("Renault", False, 2, ["Clio", "Megane", "Laguna"]),
    ("Volvo", False, 2, ["S40", "V70", "850"]),
    ("Mercedes", True, 3, ["C200", "E320", "S500", "SLK"]),
    ("BMW", True, 3, ["318i", "528i", "740i", "Z3"]),
    ("Audi", True, 2, ["A4", "A6", "A8"]),
    ("Lexus", True, 2, ["ES300", "RX300", "LS400"]),
    ("Porsche", True, 1, ["911", "Boxster"]),
    ("Jaguar", True, 1, ["XJ8", "XK8"]),
]

US_STATES = [
    "Maine", "Georgia", "Texas", "Ohio", "Oregon", "Arizona", "Illinois",
    "Florida", "New York", "California", "Nevada", "Colorado",
]

LOCATION_COUNT = 200
TIME_YEARS = (2002, 2006)  # inclusive


@dataclass(frozen=True)
class DmvSummary:
    """Row counts of a generated DMV database (the Table 1 analogue)."""

    owners: int
    cars: int
    demographics: int
    accidents: int
    locations: int = 0
    times: int = 0

    def as_rows(self) -> list[tuple[str, int]]:
        rows = [
            ("Owner", self.owners),
            ("Car", self.cars),
            ("Demographics", self.demographics),
            ("Accidents", self.accidents),
        ]
        if self.locations:
            rows.append(("Location", self.locations))
        if self.times:
            rows.append(("Time", self.times))
        return rows


class _Weighted:
    """A population with its cumulative weights, accumulated once.

    :meth:`draw` is ``rng.choices(population, weights, k=1)[0]``'s own
    arithmetic on the same one ``rng.random()`` call, so every draw, and
    so every generated row, is the one ``Random.choices`` makes.
    """

    __slots__ = ("population", "cumulative", "total", "hi")

    def __init__(self, population: list, weights: list[int]) -> None:
        self.population = population
        self.cumulative = list(accumulate(weights))
        self.total = self.cumulative[-1] + 0.0
        self.hi = len(population) - 1

    def draw(self, rng: random.Random):
        return self.population[
            bisect(self.cumulative, rng.random() * self.total, 0, self.hi)
        ]


_COUNTRY_CHOICE = _Weighted(COUNTRIES, [c[2] for c in COUNTRIES])


@lru_cache(maxsize=None)
def _make_choice(luxury: bool, country3: str) -> _Weighted:
    """The makes of one class and their weights for an owner of
    *country3*: the country biases the brand within each class (property
    4: US -> Chevrolet/Ford, DE -> Mercedes/BMW/Volkswagen)."""
    candidates = [m for m in MAKES if m[1] == luxury]
    weights = []
    for make, _, weight, _ in candidates:
        if country3 == "US" and make in ("Chevrolet", "Ford"):
            weight *= 3
        elif country3 == "DE" and make in ("Mercedes", "BMW", "Volkswagen"):
            weight *= 4
        elif country3 == "JP" and make in ("Toyota", "Honda", "Mazda", "Nissan"):
            weight *= 3
        elif country3 in ("FR", "IT", "ES") and make in ("Fiat", "Peugeot", "Renault"):
            weight *= 3
        weights.append(weight)
    return _Weighted(candidates, weights)


#: Each make's models, the first the most common.
_MODEL_CHOICE = {
    make: _Weighted(models, list(range(len(models), 0, -1)))
    for make, _, _, models in MAKES
}


class DmvGenerator:
    """Deterministic generator for the synthetic DMV data set."""

    def __init__(self, scale: float = 1.0, seed: int = 20070426) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.owner_count = max(int(PAPER_OWNER_COUNT * scale), 200)

    # -- owner-level latent state ----------------------------------------
    def _wealth(self, rng: random.Random) -> int:
        """Latent wealth level 0..9, skewed toward the low end."""
        return int(rng.random() ** 2 * 10)

    def _pick_country(self, rng: random.Random) -> tuple[str, str, list[str]]:
        country1, country3, _, cities = _COUNTRY_CHOICE.draw(rng)
        return country1, country3, cities

    def _pick_make(
        self, rng: random.Random, wealth: int, country3: str
    ) -> tuple[str, bool]:
        """Choose a make given owner wealth and country.

        Wealth drives the luxury probability (property 3); country biases
        the brand within each class (:func:`_make_choice`).
        """
        luxury_probability = 0.02 + 0.065 * wealth
        luxury = rng.random() < luxury_probability
        make, is_luxury, _, _ = _make_choice(luxury, country3).draw(rng)
        return make, is_luxury

    # -- generation --------------------------------------------------------
    def populate(self, db: Database, extended: bool = False) -> DmvSummary:
        """Create schema, generate all rows, build indexes, collect table
        sizes."""
        create_dmv_schema(db, extended=extended)
        rng = random.Random(self.seed)

        owners: list[tuple] = []
        demographics: list[tuple] = []
        cars: list[tuple] = []
        accidents: list[tuple] = []

        location_rows, time_rows = self._build_dimension_rows(rng)

        car_id = 0
        accident_id = 0
        for owner_id in range(self.owner_count):
            wealth = self._wealth(rng)
            country1, country3, cities = self._pick_country(rng)
            city = rng.choice(cities)
            name = f"Owner{owner_id}"
            owners.append((owner_id, name, country1, country3, city))

            # Salary is driven by the same latent wealth as car class
            # (property 3): luxury-car owners rarely fall under 50,000.
            salary = 14_000 + wealth * 9_000 + rng.randrange(9_000)
            age = min(16 + int(rng.random() ** 1.3 * 64), 90)
            children = max(int(rng.gauss(1.4, 1.2)), 0)
            demographics.append((owner_id, salary, age, children))

            car_count = 1 + (1 if rng.random() < SECOND_CAR_PROBABILITY else 0)
            for _ in range(car_count):
                make, is_luxury = self._pick_make(rng, wealth, country3)
                model = _MODEL_CHOICE[make].draw(rng)
                year = 1985 + int(rng.random() ** 0.7 * 22)
                cars.append((car_id, owner_id, make, model, year))

                for accident_row in self._accidents_for_car(
                    rng, accident_id, car_id, name, year, is_luxury,
                    len(location_rows), len(time_rows),
                ):
                    accidents.append(accident_row)
                    accident_id += 1
                car_id += 1

        db.insert("Owner", owners)
        db.insert("Car", cars)
        db.insert("Demographics", demographics)
        db.insert("Accidents", accidents)
        if extended:
            db.insert("Location", location_rows)
            db.insert("Time", time_rows)
        # Table sizes only (the paper's main setting): every caller
        # analyzes again at the level it wants, and a BASIC pass here was
        # thrown away.
        db.analyze(level=StatisticsLevel.CARDINALITY)
        return DmvSummary(
            owners=len(owners),
            cars=len(cars),
            demographics=len(demographics),
            accidents=len(accidents),
            locations=len(location_rows) if extended else 0,
            times=len(time_rows) if extended else 0,
        )

    def _accidents_for_car(
        self,
        rng: random.Random,
        next_id: int,
        car_id: int,
        owner_name: str,
        car_year: int,
        is_luxury: bool,
        location_count: int,
        time_count: int,
    ):
        """Accident rows for one car; counts are skewed (property 1).

        Older cars and non-luxury cars have more accidents; the per-car
        count distribution is geometric-like, so a few cars account for a
        large share of the Accidents table.
        """
        # 1.23 calibrates for the floor() of the exponential draw, so the
        # realized mean lands at Table 1's ~2.5 accidents per car.
        mean = MEAN_ACCIDENTS_PER_CAR * 1.23
        mean *= 0.6 if is_luxury else 1.08
        mean *= 0.7 + (2006 - car_year) / 30.0
        count = min(int(rng.expovariate(1.0 / mean)), 15)
        random, randrange = rng.random, rng.randrange
        first_year = max(car_year, 1995)
        years = max(2006 - first_year, 1)
        rows = []
        for offset in range(count):
            driver = owner_name if random() < 0.85 else f"Driver{randrange(10_000)}"
            year = first_year + randrange(years)
            damage = int(500 * (10 ** (random() * 2)))  # 500..50000, skewed
            # Urban locations (low ids) attract most accidents.
            locationid = int(location_count * random() ** 2.5)
            # Winter months are over-represented via the time id skew.
            timeid = randrange(time_count)
            rows.append(
                (next_id + offset, car_id, driver, year, damage, locationid, timeid)
            )
        return rows

    def _build_dimension_rows(self, rng: random.Random):
        """Location and Time dimension rows (fixed size, scale-independent)."""
        location_rows = []
        for location_id in range(LOCATION_COUNT):
            state = US_STATES[location_id % len(US_STATES)]
            city = f"{state} City {location_id // len(US_STATES)}"
            urban = 1 if location_id < LOCATION_COUNT // 4 else 0
            location_rows.append((location_id, state, city, urban))
        time_rows = []
        time_id = 0
        for year in range(TIME_YEARS[0], TIME_YEARS[1] + 1):
            for month in range(1, 13):
                for day in range(1, 29):
                    weekday = (time_id + 3) % 7
                    time_rows.append((time_id, year, month, day, weekday))
                    time_id += 1
        return location_rows, time_rows


def load_dmv(
    scale: float = 1.0,
    seed: int = 20070426,
    extended: bool = False,
    stats: StatisticsLevel = StatisticsLevel.CARDINALITY,
    backend: str = "row",
    plan_cache_size: int = DEFAULT_CAPACITY,
) -> tuple[Database, DmvSummary]:
    """Build a fresh DMV database; the one-call entry point for experiments.

    *stats* selects the optimizer-statistics level. The default mirrors the
    paper's main setting (Sec 5: table sizes only, uniformity assumed);
    ``StatisticsLevel.DETAILED`` reproduces the Sec 5.3 "sophisticated
    statistics" ablation. *backend* selects the storage layout
    (``row`` | ``columnar``); identical data and RIDs either way.
    *plan_cache_size* is handed to :class:`~repro.db.Database`.
    """
    db = Database(backend=backend, plan_cache_size=plan_cache_size)
    summary = DmvGenerator(scale=scale, seed=seed).populate(db, extended=extended)
    db.analyze(level=stats)
    return db, summary
