"""The per-process parse caches behind ``parse_html`` and
``parse_stylesheet``.

Each distinct text is parsed once; every call must still hand out a
new, fully mutable document and stylesheet that shares nothing mutable
with any other call's result, equal to what a direct parse builds.
Errors are never cached.
"""

import dataclasses
from html.parser import HTMLParser

import pytest
from hypothesis import given, strategies as st

from repro.errors import CssSyntaxError, HtmlParseError
from repro.web import Callback, Element, parse_html
from repro.web import html as html_module
from repro.web.css import parser as css_parser
from repro.web.css.parser import parse_stylesheet
from repro.web.html import _DomBuilder
from repro.workloads.registry import build_app

MARKUP = """<html class="app">
<style>.x { transition: width 2s; } #box { color: red; }</style>
<div id="box" class="x y" data-k="v" style="width: 10px; color: blue">
  <span id="inner" class="z"></span>
</div>
</html>"""


def _box(document):
    return document.get_element_by_id("box")


# ----------------------------------------------------------------------
# Isolation: one result's mutations never reach the next call
# ----------------------------------------------------------------------
class TestIsolation:
    def test_style_writes(self):
        document, _ = parse_html(MARKUP)
        _box(document).style["width"] = "99px"
        _box(document).style["height"] = "1px"
        again, _ = parse_html(MARKUP)
        assert _box(again).style == {"width": "10px", "color": "blue"}

    def test_class_add_and_discard(self):
        document, _ = parse_html(MARKUP)
        _box(document).classes.add("active")
        _box(document).classes.discard("x")
        document.root.classes.add("dark")
        again, _ = parse_html(MARKUP)
        assert list(_box(again).classes) == ["x", "y"]
        assert list(again.root.classes) == ["app"]

    def test_event_listeners(self):
        document, _ = parse_html(MARKUP)
        _box(document).add_event_listener("click", Callback(lambda ctx: None, "tap"))
        _box(document).add_event_listener(
            "click", Callback(lambda ctx: None, "cap"), capture=True
        )
        again, _ = parse_html(MARKUP)
        assert _box(again).listened_event_types == []

    def test_append_child(self):
        document, _ = parse_html(MARKUP)
        _box(document).append_child(Element("p", "late"))
        again, _ = parse_html(MARKUP)
        assert again.get_element_by_id("late") is None
        assert [child.id for child in _box(again).children] == ["inner"]
        assert again.element_count() == 3

    def test_attribute_writes(self):
        document, _ = parse_html(MARKUP)
        _box(document).attributes["data-k"] = "changed"
        _box(document).attributes["role"] = "button"
        _box(document).id = "renamed"
        again, _ = parse_html(MARKUP)
        assert _box(again).attributes == {"data-k": "v"}

    def test_stylesheet_extend(self):
        # The way the target sweep and the manual annotations add rules.
        annotation = "#box:QoS { onclick-qos: continuous, 20, 20; }"
        _, sheet = parse_html(MARKUP)
        sheet.extend(parse_stylesheet(annotation))
        extra = parse_stylesheet(annotation)
        extra.extend(parse_stylesheet(".y { width: 1px; }"))
        assert len(sheet) == 3
        _, again = parse_html(MARKUP)
        assert len(again) == 2
        assert len(parse_stylesheet(annotation)) == 1

    def test_nothing_mutable_shared(self):
        first, first_sheet = parse_html(MARKUP)
        second, second_sheet = parse_html(MARKUP)
        assert first is not second
        assert first_sheet is not second_sheet
        assert first_sheet.rules is not second_sheet.rules
        for a, b in zip(first.all_elements(), second.all_elements()):
            assert a is not b
            for name in ("classes", "attributes", "style", "children",
                         "_listeners", "_capture_listeners"):
                assert getattr(a, name) is not getattr(b, name), name
            assert a.document is first and b.document is second

    def test_shared_rules_are_frozen(self):
        one = parse_stylesheet(".x { transition: width 2s; }")
        two = parse_stylesheet(".x { transition: width 2s; }")
        assert one.rules is not two.rules
        assert one.rules[0] is two.rules[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.rules[0].selectors = ()


# ----------------------------------------------------------------------
# Errors are never cached
# ----------------------------------------------------------------------
class TestErrors:
    def test_duplicate_id_raises_every_call(self):
        for _ in range(3):
            with pytest.raises(HtmlParseError, match="duplicate"):
                parse_html('<div id="a"></div><p id="a"></p>')

    def test_duplicate_root_id_raises_every_call(self):
        # The <html> id lands on the root after its children were
        # indexed; the re-index pass must still report it as a parse
        # error.
        for _ in range(3):
            with pytest.raises(HtmlParseError, match="duplicate"):
                parse_html('<html id="a"><div id="a"></div></html>')

    def test_malformed_css_raises_every_call(self):
        for _ in range(3):
            with pytest.raises(CssSyntaxError):
                parse_stylesheet("div { color red }")

    def test_malformed_style_block_raises_every_call(self):
        markup = "<style>div { color: }</style><div id='a'></div>"
        for _ in range(3):
            with pytest.raises(CssSyntaxError):
                parse_html(markup)


# ----------------------------------------------------------------------
# Parity with a direct parse, for generated trees
# ----------------------------------------------------------------------
_TAGS = ["div", "span", "p", "ul", "li", "section", "br", "img"]
_NAMES = st.sampled_from(["a", "b", "nav", "item", "x-y"])
_VALUES = st.text(alphabet="abz09 -_", max_size=6)

_ATTRIBUTES = st.lists(
    st.tuples(st.sampled_from(["data-k", "role", "title"]), _VALUES), max_size=3
)
_STYLES = st.lists(
    st.tuples(st.sampled_from(["width", "color", "opacity"]), _VALUES), max_size=3
)


def _node(children):
    return st.tuples(
        st.sampled_from(_TAGS), st.booleans(), st.lists(_NAMES, max_size=4),
        _ATTRIBUTES, _STYLES, children,
    )


_nodes = st.recursive(
    _node(st.just([])), lambda inner: _node(st.lists(inner, max_size=4)),
    max_leaves=12,
)


def _render(node, counter) -> str:
    tag, has_id, classes, attributes, style, children = node
    parts = [tag]
    if has_id:
        counter.append(None)
        parts.append(f'id="e{len(counter)}"')
    if classes:
        parts.append(f'class="{" ".join(classes)}"')
    parts.extend(f'{name}="{value}"' for name, value in attributes)
    if style:
        parts.append('style="' + "; ".join(f"{p}: {v}" for p, v in style) + '"')
    inner = "".join(_render(child, counter) for child in children)
    if tag in ("br", "img"):
        return f"<{' '.join(parts)}>"
    return f"<{' '.join(parts)}>{inner}</{tag}>"


def _direct_parse(markup):
    builder = _DomBuilder()
    builder.feed(markup)
    builder.close()
    for element in builder.document.all_elements():
        builder.document._index(element)
    return builder.document


def _shape(element):
    return (
        element.tag, element.id, list(element.classes),
        list(element.attributes.items()), list(element.style.items()),
        [_shape(child) for child in element.children],
    )


@given(st.lists(_nodes, max_size=4))
def test_cached_parse_matches_direct_parse(forest):
    counter: list = []
    markup = '<html class="root">' + "".join(
        _render(node, counter) for node in forest
    ) + "</html>"
    direct = _direct_parse(markup)
    for _ in range(2):  # a miss, then a hit
        document, _ = parse_html(markup)
        assert _shape(document.root) == _shape(direct.root)
        for element in document.all_elements():
            assert element.document is document
            for child in element.children:
                assert child.parent is element
            if element.id:
                assert document.get_element_by_id(element.id) is element


# ----------------------------------------------------------------------
# One real parse per distinct text
# ----------------------------------------------------------------------
def test_building_an_app_twice_parses_each_text_once(monkeypatch):
    html_module._parse_template.cache_clear()
    css_parser._parse_rules.cache_clear()
    feeds: list = []
    texts: list = []
    real_feed = HTMLParser.feed
    real_tokenize = css_parser.tokenize

    def counting_feed(self, data):
        feeds.append(data)
        return real_feed(self, data)

    def counting_tokenize(text, **kwargs):
        texts.append(text)
        return real_tokenize(text, **kwargs)

    monkeypatch.setattr(HTMLParser, "feed", counting_feed)
    monkeypatch.setattr(css_parser, "tokenize", counting_tokenize)

    build_app("todo", seed=0)
    assert len(feeds) == 1
    first_texts = list(texts)
    assert len(first_texts) >= 2  # the page's <style> and its annotations
    build_app("todo", seed=1)
    assert len(feeds) == 1
    assert texts == first_texts
    assert len(set(texts)) == len(texts)
