"""Minimal HTML parser: markup -> (Document, Stylesheet).

Supports the subset the workloads and examples need: nested elements
with ``id``/``class``/other attributes, self-closing tags, ``<style>``
blocks (collected and parsed as CSS), comments, and text (ignored —
text nodes carry no QoS-relevant behaviour).  ``<html>`` in the markup
is merged into the document's implicit root.

Each distinct markup string is parsed once per process into a private
document; :func:`parse_html` builds a fresh copy of it on every call.
"""

from __future__ import annotations

from functools import lru_cache
from html.parser import HTMLParser

from repro.errors import HtmlParseError
from repro.web.css.parser import parse_stylesheet
from repro.web.css.stylesheet import Stylesheet
from repro.web.dom import Document, Element

_VOID_TAGS = frozenset(
    {"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed",
     "source", "track", "wbr"}
)

#: Distinct markup strings kept parsed per process (one per app page).
_TEMPLATE_CACHE_SIZE = 64


class _DomBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.document = Document()
        self._stack: list[Element] = [self.document.root]
        self._style_chunks: list[str] = []
        self._in_style = False

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if tag == "style":
            self._in_style = True
            return
        if tag == "html":
            # merge attributes into the implicit root
            self._apply_attrs(self.document.root, attrs)
            return
        element = self._make_element(tag, attrs)
        self._stack[-1].append_child(element)
        if tag not in _VOID_TAGS:
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if tag in ("style", "html"):
            return
        self._stack[-1].append_child(self._make_element(tag, attrs))

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "style":
            self._in_style = False
            return
        if tag == "html" or tag in _VOID_TAGS:
            return
        # Pop to the matching open tag; tolerate mismatches like browsers do.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        if self._in_style:
            self._style_chunks.append(data)

    def _make_element(self, tag: str, attrs: list[tuple[str, str | None]]) -> Element:
        element = Element(tag)
        self._apply_attrs(element, attrs)
        return element

    @staticmethod
    def _apply_attrs(element: Element, attrs: list[tuple[str, str | None]]) -> None:
        for name, value in attrs:
            value = value if value is not None else ""
            if name == "id":
                element.id = value
            elif name == "class":
                element.classes.update(value.split())
            elif name == "style":
                for part in value.split(";"):
                    if ":" in part:
                        prop, _, val = part.partition(":")
                        element.style[prop.strip().lower()] = val.strip()
            else:
                element.attributes[name] = value

    @property
    def style_text(self) -> str:
        return "\n".join(self._style_chunks)


def parse_html(markup: str) -> tuple[Document, Stylesheet]:
    """Parse HTML markup into a DOM and the combined stylesheet from
    all of its ``<style>`` blocks.

    Each distinct markup string is parsed once per process; every call
    returns a new document and stylesheet, sharing nothing mutable with
    earlier results.  Errors are never cached: bad markup or bad CSS
    raises on every call.

    Raises:
        HtmlParseError: on markup the builder cannot place (e.g. an id
            duplicated across elements).
    """
    template, style_text = _parse_template(markup)
    document = Document()
    _copy_into(document.root, template.root)
    stylesheet = parse_stylesheet(style_text) if style_text else Stylesheet()
    return document, stylesheet


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _parse_template(markup: str) -> tuple[Document, str]:
    """The one real parse of ``markup``: a private document that never
    leaves this module, and its combined ``<style>`` text."""
    builder = _DomBuilder()
    try:
        builder.feed(markup)
        builder.close()
        # Re-index after full construction so late id assignments (the
        # root's, from an <html id=...> tag) meet the duplicate check.
        for element in builder.document.all_elements():
            builder.document._index(element)
    except HtmlParseError:
        raise
    except Exception as exc:  # DomError and parser internals
        raise HtmlParseError(f"failed to parse markup: {exc}") from exc
    return builder.document, builder.style_text.strip()


def _copy_into(element: Element, source: Element) -> None:
    """Fill ``element`` (already in its document) from ``source`` and
    build its subtree of new elements."""
    element.id = source.id
    element.classes.update(source.classes)
    element.attributes.update(source.attributes)
    element.style.update(source.style)
    document = element.document
    document._index(element)
    for source_child in source.children:
        child = Element(source_child.tag)
        child.parent = element
        child._document = document
        element.children.append(child)
        _copy_into(child, source_child)
