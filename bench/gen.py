"""Seeded input generator for the medlex benchmark.

``generate(root, workload, params, seed, out_dir)`` writes a workload's
dictionary (TSV or JSONL, optionally with CoNLL-U), keyword table,
resource files, manifest and gold file under ``out_dir`` and returns a
``Plan``: what was written plus the facts the oracle needs that medlex
never sees, such as each entry's planted first noun.

The inputs are valid under the README's rules: unique ids, distinct
trust ranks, no CHAPTERED or PER_ENTRY resource that disagrees with
itself after case folding, and every gold term predicted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CATEGORIES = (
    "ABBREV", "ANAT_LOC", "CONDITION", "DISCIPLINE", "MICROORG", "ORGANIZATION",
    "PERSON", "PHYSIOLOGY", "PROCEDURE", "SERVICE", "SUBSTANCE", "TOOL",
)

# Neutral words use only these letters. Every keyword contains one of
# KEYWORD_VOWELS, so a neutral word can neither equal nor contain a
# keyword; the generator also keeps neutral words off every suffix. A
# neutral term therefore casts no vote, which is what ITER chains need.
NEUTRAL_CONSONANTS = "bdghjklmnprstv"
NEUTRAL_VOWELS = "au"
KEYWORD_VOWELS = "eioyø"
KEYWORD_CONSONANTS = "bdfgklmnprstv"
RESOURCE_LETTERS = "abdefghiklmnoprstuvyæøå"

MIN_CONTAINED = 5  # keywords shorter than this only fire as exact first-noun matches

# Shares of the plain (non-ITER, non-homograph, non-synonym) entries.
TERM_KEYWORD_SHARE = 0.35
TERM_SUFFIX_SHARE = 0.35
FIRST_NOUN_EXACT_SHARE = 0.35
FIRST_NOUN_CONTAINS_SHARE = 0.15
FIRST_NOUN_NONE_SHARE = 0.1

# Token sequences the first-noun extraction must skip, under the shipped
# stoplist and function-word list, with both CoNLL-U and heuristic tags.
PREFIXES = (
    (),
    (("en", "DET"),),
    (("form", "NOUN"), ("av", "ADP")),
    (("uttrykk", "NOUN"), ("for", "ADP")),
    (("lat.", "NOUN"),),
    (("en", "DET"), ("form", "NOUN"), ("av", "ADP")),
)
NO_NOUN = (("uttrykk", "NOUN"), ("for", "ADP"), ("det", "PRON"), (".", "PUNCT"))

# CHAPTERED routing: one EXCLUDE chapter, six routed chapters, the rest
# fall to the default.
CHAPTERS = tuple(f"K{i:02d}" for i in range(1, 16))
CHAPTER_RULES = {
    "K01": "MICROORG",
    "K02": "ANAT_LOC",
    "K03": "PROCEDURE",
    "K04": "PHYSIOLOGY",
    "K05": "PERSON",
    "K06": "SERVICE",
    "K07": "EXCLUDE",
}
CHAPTER_DEFAULT = "CONDITION"
LAYOUTS = {
    "CHAPTERED": {"chapter": 0, "code": 1, "term": 2},
    "PER_ENTRY": {"code": 0, "term": 1, "category": 2},
    "FIXED": {"term": 0, "code": 1},
}


def read_table(path: Path) -> list[tuple[str, str]]:
    """Two-column trigger<TAB>CATEGORY table, comments and blanks skipped."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        trigger, label = line.split("\t")
        rows.append((trigger.strip().lower().lstrip("-"), label.strip().upper().replace("-", "_")))
    return rows


def read_words(path: Path) -> set[str]:
    return {
        w.strip().lower()
        for w in path.read_text(encoding="utf-8").splitlines()
        if w.strip() and not w.lstrip().startswith("#")
    }


@dataclass
class Entry:
    term: str
    term_keyword: bool = False  # a keyword was planted in the term
    senses: list[list[tuple[str, str]]] = field(default_factory=list)
    synonym_of: "Entry | None" = None
    first_noun: str | None = None  # planted, after synonym resolution
    kind: str = "plain"
    id: str = ""


@dataclass
class Resource:
    name: str
    file: str
    mode: str
    trust_rank: int
    category: str | None
    rows: list[tuple[str, str | None, str | None]]  # term as written, category (None = excluded), chapter

    def manifest_obj(self) -> dict:
        obj = {"name": self.name, "file": self.file, "mode": self.mode,
               "trust_rank": self.trust_rank, "layout": LAYOUTS[self.mode]}
        if self.mode == "FIXED":
            obj["category"] = self.category
        if self.mode == "CHAPTERED":
            obj["rules"] = [{"chapter": c, "category": k} for c, k in CHAPTER_RULES.items()]
            obj["default"] = CHAPTER_DEFAULT
        return obj


@dataclass
class Plan:
    """Generated files and the facts the oracle checks against."""

    dict_file: str
    conllu_file: str | None
    keyword_file: str | None
    manifest_file: str
    gold_file: str
    entries: list[Entry]
    suffixes: list[tuple[str, str]]
    keywords: list[tuple[str, str]]
    resources: list[Resource]
    gold: dict[str, str]  # normalized term -> label
    properties: dict


class _Gen:
    def __init__(self, rng: random.Random, suffixes, banned: set[str]):
        self.rng = rng
        self.suffix_tuple = tuple(s for s, _ in suffixes)
        self.used = set(banned)

    def neutral(self, syllables: int) -> str:
        rng = self.rng
        while True:
            word = "".join(
                rng.choice(NEUTRAL_CONSONANTS) + rng.choice(NEUTRAL_VOWELS)
                + (rng.choice(NEUTRAL_CONSONANTS) if rng.random() < 0.3 else "")
                for _ in range(syllables)
            )
            if word not in self.used and not word.endswith(self.suffix_tuple):
                self.used.add(word)
                return word

    def stem(self, syllables: int) -> str:
        """A neutral word that is not registered as used."""
        rng = self.rng
        return "".join(rng.choice(NEUTRAL_CONSONANTS) + rng.choice(NEUTRAL_VOWELS) for _ in range(syllables))

    def keyword(self) -> str:
        rng = self.rng
        while True:
            n = rng.randint(MIN_CONTAINED, 9)
            word = "".join(
                rng.choice(KEYWORD_CONSONANTS) if i % 2 == 0 else rng.choice(NEUTRAL_VOWELS + KEYWORD_VOWELS)
                for i in range(n)
            )
            if any(c in KEYWORD_VOWELS for c in word) and word not in self.used:
                self.used.add(word)
                return word


def generate(root: Path, workload: str, params: dict, seed: int, out: Path) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    data = root / "src" / "medlex" / "data"
    suffixes = read_table(data / "suffixes.tsv")
    shipped_keywords = read_table(data / "keywords.tsv")
    banned = read_words(data / "function_words.txt") | read_words(data / "stops.txt")
    banned |= {"form", "av", "for", "det", "en", "som", "lat."}
    gen = _Gen(rng, suffixes, banned | {k for k, _ in shipped_keywords})

    keywords = list(shipped_keywords)
    k_rows = params["keywords"]["rows"]
    while len(keywords) < k_rows:
        keywords.append((gen.keyword(), rng.choice(CATEGORIES)))
    for kw, _ in keywords:
        if not any(c in KEYWORD_VOWELS for c in kw):
            raise ValueError(f"keyword {kw!r} would let neutral words vote")
    out.mkdir(parents=True, exist_ok=True)

    entries, props = _dictionary(gen, params["dictionary"], keywords)
    d = params["dictionary"]
    dict_file = "dict." + ("jsonl" if d["format"] == "jsonl" else "tsv")
    _write_dictionary(out / dict_file, entries, d["format"])
    conllu_file = None
    if d["conllu"]:
        conllu_file = "dict.conllu"
        _write_conllu(out / conllu_file, entries)
    keyword_file = None
    if k_rows != len(shipped_keywords):
        keyword_file = "keywords.tsv"
        lines = ["# generated keyword table: shipped rows plus seeded ones"]
        lines += [f"{kw}\t{cat}" for kw, cat in keywords]
        (out / keyword_file).write_text("\n".join(lines) + "\n", encoding="utf-8")

    resources = _resources(gen, params, entries)
    for res in resources:
        _write_resource(out / res.file, res)
    manifest_file = "manifest.json"
    (out / manifest_file).write_text(
        json.dumps([r.manifest_obj() for r in resources], indent=1), encoding="utf-8"
    )

    gold = _gold(rng, entries, keywords, params["gold_terms"])
    gold_file = "gold.tsv"
    gold_lines = []
    for term, label in gold.items():
        written = term.capitalize() if rng.random() < 0.1 else term
        gold_lines.append(f"{written}\t{label}")
    (out / gold_file).write_text("\n".join(gold_lines) + "\n", encoding="utf-8")

    props.update(
        keywords=len(keywords),
        suffixes=len(suffixes),
        resource_rows={r.name: len(r.rows) for r in resources},
        resource_excluded={r.name: sum(1 for _, c, _ in r.rows if c is None) for r in resources},
        gold_terms=len(gold),
    )
    return Plan(dict_file, conllu_file, keyword_file, manifest_file, gold_file, entries,
                suffixes, keywords, resources, gold, props)


def _sense(rng: random.Random, first_noun: str | None, filler: str) -> list[tuple[str, str]]:
    if first_noun is None:
        return list(NO_NOUN)
    tokens = list(rng.choice(PREFIXES)) + [(first_noun, "NOUN")]
    if rng.random() < 0.5:
        tokens += [("som", "PRON"), ("er", "AUX"), (filler, "NOUN"), (".", "PUNCT")]
    else:
        tokens += [("i", "ADP"), (filler, "NOUN")]
    return tokens


def _dictionary(gen: _Gen, d: dict, keywords) -> tuple[list[Entry], dict]:
    rng = gen.rng
    n = d["entries"]
    long_kw = [k for k, _ in keywords if len(k) >= MIN_CONTAINED]
    cat_of = dict(keywords)
    fillers = [gen.neutral(3) for _ in range(300)]
    terms: set[str] = set()

    def unique(make) -> str:
        while True:
            t = make()
            if t not in terms:
                terms.add(t)
                return t

    def plain_entry(kind: str = "plain") -> Entry:
        with_kw = rng.random() < TERM_KEYWORD_SHARE
        with_suffix = rng.random() < TERM_SUFFIX_SHARE

        def make():
            t = gen.stem(rng.randint(2, 3))
            if with_kw:
                t += rng.choice(long_kw)
            if with_suffix:
                t += rng.choice(gen.suffix_tuple)
            return t
        return Entry(unique(make), term_keyword=with_kw, kind=kind)

    def plain_first_noun() -> str | None:
        r = rng.random()
        if r < FIRST_NOUN_EXACT_SHARE:
            return rng.choice(keywords)[0]
        r -= FIRST_NOUN_EXACT_SHARE
        if r < FIRST_NOUN_CONTAINS_SHARE:
            return gen.stem(1) + rng.choice(long_kw)
        r -= FIRST_NOUN_CONTAINS_SHARE
        if r < FIRST_NOUN_NONE_SHARE:
            return None
        return rng.choice(fillers)

    def with_sense(entry: Entry) -> Entry:
        entry.senses = [_sense(rng, entry.first_noun, rng.choice(fillers))]
        if rng.random() < d["multi_sense_share"]:
            for _ in range(rng.randint(1, 2)):
                entry.senses.append(_sense(rng, rng.choice(keywords)[0], rng.choice(fillers)))
        return entry

    n_syn = int(n * d["synonym_share"])
    n_homograph = int(n * d["homograph_share"]) // 2 * 2
    n_links = int(n * d["iter_link_share"])
    n_plain = n - n_syn - n_homograph - n_links

    plain = []
    for _ in range(n_plain):
        entry = plain_entry()
        entry.first_noun = plain_first_noun()
        plain.append(with_sense(entry))
    # ITER donors: mapped by a vote, with no keyword planted in the term,
    # so a link naming it as first noun casts no vote of its own.
    donors = [
        e for e in plain
        if not e.term_keyword and (e.term.endswith(gen.suffix_tuple) or e.first_noun in cat_of)
    ]

    homographs: list[Entry] = []
    for _ in range(n_homograph // 2):
        term = unique(lambda: gen.neutral(3))
        kw_a, cat_a = rng.choice(keywords)
        kw_b, cat_b = rng.choice(keywords)
        while cat_b == cat_a:
            kw_b, cat_b = rng.choice(keywords)
        homographs += [
            with_sense(Entry(term, first_noun=kw_a, kind="homograph")),
            with_sense(Entry(term, first_noun=kw_b, kind="homograph")),
        ]

    links: list[Entry] = []
    while len(links) < n_links:
        prev = rng.choice(homographs if homographs and rng.random() < 0.1 else donors)
        for _ in range(min(rng.choice(d["iter_chain_lengths"]), n_links - len(links))):
            link = with_sense(Entry(unique(lambda: gen.neutral(3)), first_noun=prev.term, kind="iter"))
            links.append(link)
            prev = link

    base = plain + homographs + links
    synonyms: list[Entry] = []
    for _ in range(n_syn):
        if synonyms and rng.random() < d["synonym_chain_share"]:
            target = rng.choice(synonyms)
        else:
            target = rng.choice(base)
        synonym = plain_entry("synonym")
        synonym.synonym_of, synonym.first_noun = target, target.first_noun
        synonyms.append(synonym)

    entries = base + synonyms
    rng.shuffle(entries)
    for i, e in enumerate(entries, start=1):
        e.id = f"E{i:06d}"
    props = {
        "entries": n,
        "synonyms": n_syn,
        "synonym_chains": sum(1 for s in synonyms if s.synonym_of.kind == "synonym"),
        "iter_links": n_links,
        "homograph_entries": n_homograph,
        "multi_sense_entries": sum(1 for e in entries if len(e.senses) > 1),
        "first_noun_exact_keyword": sum(1 for e in entries if e.first_noun in cat_of),
    }
    return entries, props


def _write_dictionary(path: Path, entries: list[Entry], fmt: str) -> None:
    lines = []
    for e in entries:
        texts = [" ".join(s for s, _ in sense) for sense in e.senses]
        if fmt == "jsonl":
            obj: dict = {"id": e.id, "term": e.term}
            if e.synonym_of is not None:
                obj["synonym_of"] = e.synonym_of.id
            elif len(texts) > 1:
                obj["definitions"] = texts
            else:
                obj["definition"] = texts[0]
            lines.append(json.dumps(obj, ensure_ascii=False))
        elif e.synonym_of is not None:
            lines.append(f"{e.id}\t{e.term}\t\t{e.synonym_of.id}")
        else:
            lines.append(f"{e.id}\t{e.term}\t{texts[0]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_conllu(path: Path, entries: list[Entry]) -> None:
    lines = []
    for e in entries:
        if not e.senses:
            continue
        sense = e.senses[0]
        lines.append(f"# sent_id = {e.id}")
        lines.append("# text = " + " ".join(s for s, _ in sense))
        for i, (surface, upos) in enumerate(sense, start=1):
            lines.append(f"{i}\t{surface}\t_\t{upos}\t_\t_\t0\tdep\t_\t_")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resource_word(rng: random.Random) -> str:
    return "".join(rng.choices(RESOURCE_LETTERS, k=5 + int(rng.random() * 7)))


def _resources(gen: _Gen, params: dict, entries: list[Entry]) -> list[Resource]:
    """Resources with shared terms, dictionary terms and case variants.

    Keys are unique within a resource except for case variants, which
    repeat a row's chapter or category, so no resource disagrees with
    itself after case folding.
    """
    rng = gen.rng
    specs = params["resources"]
    shared = [_resource_word(rng) for _ in range(max(1, sum(s["rows"] for s in specs) // 20))]
    dict_terms = sorted({e.term for e in entries if e.kind != "homograph"})
    overlap = rng.sample(dict_terms, int(len(dict_terms) * params["dictionary_overlap_share"]))
    homograph_terms = sorted({e.term for e in entries if e.kind == "homograph"})
    owner = min(specs, key=lambda s: s["trust_rank"])["name"]

    resources = []
    for spec in specs:
        mode = spec["mode"]
        keys: set[str] = set()
        rows: list[tuple[str, str | None, str | None]] = []  # term, category, chapter

        def add(term: str) -> None:
            key = " ".join(term.lower().split())
            if key in keys:
                return
            keys.add(key)
            chapter = None
            if mode == "FIXED":
                category = spec["category"]
            elif mode == "PER_ENTRY":
                category = rng.choice(CATEGORIES)
            else:
                chapter = rng.choice(CHAPTERS)
                rule = CHAPTER_RULES.get(chapter, CHAPTER_DEFAULT)
                category = None if rule == "EXCLUDE" else rule
            rows.append((term, category, chapter))

        if spec["name"] == owner:
            for term in homograph_terms:
                add(term)
        for term in overlap[len(resources)::len(specs)]:
            add(term)
        target = spec["rows"]
        while len(rows) < target:
            r = rng.random()
            if rows and r < params["case_variant_share"]:
                term, category, chapter = rng.choice(rows)
                rows.append((term.upper() if rng.random() < 0.5 else term.capitalize(), category, chapter))
            elif r < params["case_variant_share"] + params["resource_shared_share"]:
                add(rng.choice(shared))
            elif r < 0.3:
                add(_resource_word(rng) + rng.choice(("  ", " ")) + _resource_word(rng))
            else:
                add(_resource_word(rng))
        file = f"res_{spec['name'].lower()}.tsv"
        resources.append(Resource(spec["name"], file, mode, spec["trust_rank"], spec.get("category"), rows))
    return resources


def _write_resource(path: Path, res: Resource) -> None:
    lines = [f"# {res.name}: generated {res.mode} resource"]
    for i, (term, category, chapter) in enumerate(res.rows):
        code = f"C{i:06d}"
        if res.mode == "CHAPTERED":
            lines.append(f"{chapter}\t{code}\t{term}")
        elif res.mode == "PER_ENTRY":
            lines.append(f"{code}\t{term}\t{category}")
        else:
            lines.append(f"{term}\t{code}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _gold(rng: random.Random, entries: list[Entry], keywords, n: int) -> dict[str, str]:
    """Gold labels for entries whose planted first noun is a keyword.

    An exact keyword first noun always casts a KW_1N vote, so every gold
    term has a prediction.
    """
    cat_of = dict(keywords)
    pool = [e for e in entries if e.kind == "plain" and e.first_noun in cat_of]
    gold = {}
    for e in rng.sample(pool, min(n, len(pool))):
        r = rng.random()
        if r < 0.05:
            label = "OTHER"
        elif r < 0.2:
            label = rng.choice(CATEGORIES)
        else:
            label = cat_of[e.first_noun]
        gold[e.term] = label
    return gold
